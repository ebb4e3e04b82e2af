/**
 * @file
 * htlint rule coverage: every rule must (a) fire on a fixture that
 * violates its invariant and (b) stay quiet on the compliant
 * counterpart; suppression comments must silence findings. The
 * whole-program rules are additionally proven across a TU boundary
 * (entry point in one file, violation in another).
 *
 * Fixtures live in tests/tools/fixtures/ and are linted in-process
 * under a pretend src/-relative path so path-scoped rules apply.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats_export.hh"
#include "tools/htlint/driver.hh"
#include "tools/htlint/sarif.hh"

using namespace hypertee::htlint;

namespace
{

std::string
fixture(const std::string &name)
{
    return std::string(HTLINT_FIXTURE_DIR) + "/" + name;
}

/** Lint fixture files under pretend project-relative paths. */
std::vector<Diagnostic>
lintAs(const std::vector<std::pair<std::string, std::string>> &files)
{
    Project proj;
    for (const auto &[name, rel] : files)
        EXPECT_TRUE(proj.addFile(fixture(name), rel))
            << "unreadable fixture " << name;
    return proj.run();
}

/** 1-based line of fixture @p name holding @p needle (0: absent). */
int
fixtureLine(const std::string &name, const std::string &needle)
{
    std::ifstream in(fixture(name));
    std::string text;
    for (int line = 1; std::getline(in, text); ++line)
        if (text.find(needle) != std::string::npos)
            return line;
    return 0;
}

int
countRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    int n = 0;
    for (const Diagnostic &d : diags)
        if (d.rule == rule)
            ++n;
    return n;
}

// ---------------------------------------------------- mediation-path

TEST(HtlintMediationPath, FlagsUncheckedAccessInEntryFunction)
{
    // The sink and the entry point are the same function: the root
    // is CS-side (src/emcall/) and holds no guard.
    auto diags = lintAs({{"bitmap_mediation_bad.cc",
                          "src/emcall/bitmap_mediation_bad.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 1);
}

TEST(HtlintMediationPath, AcceptsLocallyMediatedAccess)
{
    auto diags = lintAs({{"bitmap_mediation_good.cc",
                          "src/emcall/bitmap_mediation_good.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 0);
}

TEST(HtlintMediationPath, FlagsUnguardedPathAcrossTuBoundary)
{
    // Entry point in src/emcall/, sink in a src/core/ helper: the
    // per-function heuristic was blind to this split.
    auto diags = lintAs(
        {{"mediation_path_entry_bad.cc", "src/emcall/gate.cc"},
         {"mediation_path_helper.cc", "src/core/copy.cc"}});
    ASSERT_EQ(countRule(diags, "mediation-path"), 1);
    for (const Diagnostic &d : diags)
        if (d.rule == "mediation-path") {
            // Reported at the sink, naming the offending chain.
            EXPECT_EQ(d.file, "src/core/copy.cc");
            EXPECT_NE(d.message.find("handleWrite"),
                      std::string::npos);
            EXPECT_NE(d.message.find("copyToEnclave"),
                      std::string::npos);
        }
}

TEST(HtlintMediationPath, GuardInCallerCutsThePath)
{
    auto diags = lintAs(
        {{"mediation_path_entry_good.cc", "src/emcall/gate.cc"},
         {"mediation_path_helper.cc", "src/core/copy.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 0);
}

TEST(HtlintMediationPath, NonEntrySinkWithoutCallersIsQuiet)
{
    // A helper nobody calls is dead code, not a CS-side entry path.
    auto diags = lintAs(
        {{"mediation_path_helper.cc", "src/core/copy.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 0);
}

TEST(HtlintMediationPath, ExemptsMemButNotFabric)
{
    // src/mem/ is the mediation layer itself; src/fabric/ no longer
    // gets a blanket exemption -- its accesses must be proven, so an
    // unguarded root there fires.
    auto diags =
        lintAs({{"bitmap_mediation_bad.cc", "src/mem/phys_user.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 0);
    diags =
        lintAs({{"bitmap_mediation_bad.cc", "src/fabric/ihub2.cc"}});
    EXPECT_EQ(countRule(diags, "mediation-path"), 1);
}

// ----------------------------------------------------------- lockset

TEST(HtlintLockset, FlagsUnlockedAndCallerUnprovenAccess)
{
    // Annotations in the header, accesses in the .cc: append() fires
    // directly (both the trailing and the own-line annotation carry
    // over the TU boundary); countLocked() fires because its only
    // caller, size(), does not hold the lock -- the helper is judged
    // by its callers' locksets, not by its name.
    auto diags =
        lintAs({{"lockset.hh", "src/sim/event_log.hh"},
                {"lockset_bad.cc", "src/sim/event_log.cc"}});
    EXPECT_EQ(countRule(diags, "lockset"), 3);
}

TEST(HtlintLockset, CallerHoldingTheLockProvesTheHelper)
{
    // countLocked() never locks, yet stays clean: size() holds
    // _mutex at the call site, which proves the helper's lockset.
    auto diags =
        lintAs({{"lockset.hh", "src/sim/event_log.hh"},
                {"lockset_good.cc", "src/sim/event_log.cc"}});
    EXPECT_EQ(countRule(diags, "lockset"), 0);
}

TEST(HtlintLockset, UnprovenHelperBlamesTheUnlockedCallSite)
{
    auto diags =
        lintAs({{"lockset.hh", "src/sim/event_log.hh"},
                {"lockset_bad.cc", "src/sim/event_log.cc"}});
    bool saw_helper = false;
    for (const Diagnostic &d : diags) {
        if (d.rule != "lockset" ||
            d.message.find("countLocked") == std::string::npos)
            continue;
        saw_helper = true;
        EXPECT_NE(d.message.find("at least one caller"),
                  std::string::npos)
            << d.message;
        // Flow: the unprotected access, then the call site that
        // fails to hold the mutex.
        ASSERT_GE(d.flow.size(), 2u);
        EXPECT_NE(d.flow[1].note.find("EventLog::size"),
                  std::string::npos)
            << d.flow[1].note;
    }
    EXPECT_TRUE(saw_helper);
}

// --------------------------------------------------------- lock-order

TEST(HtlintLockOrder, FlagsConflictingOrderAcrossTuBoundary)
{
    // credit() nests _journal inside _accounts in one TU; debit()
    // holds _journal across a call whose callee takes _accounts in
    // another. Each TU is consistent alone; the cycle only exists in
    // the merged acquisition graph.
    auto diags = lintAs(
        {{"lock_order.hh", "src/sim/ledger.hh"},
         {"lock_order_bad_a.cc", "src/sim/ledger_credit.cc"},
         {"lock_order_bad_b.cc", "src/sim/ledger_debit.cc"}});
    ASSERT_EQ(countRule(diags, "lock-order"), 1);
    for (const Diagnostic &d : diags) {
        if (d.rule != "lock-order")
            continue;
        EXPECT_NE(d.message.find("Ledger::_accounts"),
                  std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("Ledger::_journal"),
                  std::string::npos);
        EXPECT_NE(d.message.find("deadlock"), std::string::npos);
        // One flow step per edge of the two-mutex cycle, and the
        // transitive edge must name the call it flows through.
        ASSERT_EQ(d.flow.size(), 2u);
        bool names_call = false;
        for (const FlowStep &s : d.flow)
            if (s.note.find("appendJournal") != std::string::npos)
                names_call = true;
        EXPECT_TRUE(names_call)
            << "transitive edge should cite the call site";
    }
}

TEST(HtlintLockOrder, EachTuAloneIsConsistent)
{
    for (const char *leg : {"lock_order_bad_a.cc",
                            "lock_order_bad_b.cc"}) {
        auto diags = lintAs({{"lock_order.hh", "src/sim/ledger.hh"},
                             {leg, "src/sim/ledger_leg.cc"}});
        EXPECT_EQ(countRule(diags, "lock-order"), 0) << leg;
    }
}

TEST(HtlintLockOrder, ConsistentOrderThroughCallsIsQuiet)
{
    // The good fixture has the same edges (including a transitive
    // one) but every path agrees on _accounts before _journal.
    auto diags =
        lintAs({{"lock_order.hh", "src/sim/ledger.hh"},
                {"lock_order_good.cc", "src/sim/ledger.cc"}});
    EXPECT_EQ(countRule(diags, "lock-order"), 0);
}

TEST(HtlintLockOrder, LambdaArgumentIsNotAFunctionNamedAfterTheCall)
{
    // flush() is called only from a lambda passed to push_back; a
    // function holding _queue calls an unrelated push_back, and
    // rotate() takes _log then _queue. Naming the lambda after the
    // call would invent a _queue -> _log edge and a cycle.
    auto diags = lintAs(
        {{"lock_order_lambda.hh", "src/sim/journal.hh"},
         {"lock_order_lambda_good.cc", "src/sim/journal.cc"}});
    EXPECT_EQ(countRule(diags, "lock-order"), 0);
}

TEST(HtlintLockOrder, DirectCallBesideALambdaArgumentStillCycles)
{
    // The same program with a direct flush() call under _queue: a
    // true cycle, and its _queue -> _log edge cites that call.
    auto diags = lintAs(
        {{"lock_order_lambda.hh", "src/sim/journal.hh"},
         {"lock_order_lambda_bad.cc", "src/sim/journal.cc"}});
    ASSERT_EQ(countRule(diags, "lock-order"), 1);
    for (const Diagnostic &d : diags) {
        if (d.rule != "lock-order")
            continue;
        EXPECT_NE(d.message.find("Journal::_queue"), std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("Journal::_log"), std::string::npos);
        bool names_flush = false;
        for (const FlowStep &s : d.flow)
            if (s.note.find("flush") != std::string::npos)
                names_flush = true;
        EXPECT_TRUE(names_flush)
            << "the _queue -> _log edge should cite the flush() call";
    }
}

// ------------------------------------------------------ atomic-sanity

TEST(HtlintAtomicSanity, FlagsSplitRmwRelaxedFlagAndWeakDcl)
{
    auto diags = lintAs(
        {{"atomic_sanity_bad.cc", "src/sim/counters.cc"}});
    EXPECT_EQ(countRule(diags, "atomic-sanity"), 4);
    int split = 0, flag = 0, dcl = 0;
    for (const Diagnostic &d : diags) {
        if (d.rule != "atomic-sanity")
            continue;
        if (d.message.find("split load/store") != std::string::npos)
            ++split;
        if (d.message.find("flag-like") != std::string::npos)
            ++flag;
        if (d.message.find("double-checked") != std::string::npos)
            ++dcl;
    }
    EXPECT_EQ(split, 2); // `a = a + 1` and `a.store(a.load() + 1)`
    EXPECT_EQ(flag, 1);
    EXPECT_EQ(dcl, 1);
}

TEST(HtlintAtomicSanity, AcceptsFetchAddCasLoopsAndAcquireRelease)
{
    // The CAS retry loop loads then compare_exchanges the same
    // atomic; that shape must not be mistaken for a split RMW.
    auto diags = lintAs(
        {{"atomic_sanity_good.cc", "src/sim/counters.cc"}});
    EXPECT_EQ(countRule(diags, "atomic-sanity"), 0);
}

TEST(HtlintAtomicSanity, ScopedToSrcAndBench)
{
    // The linter's own tooling and tests are not simulation hot
    // paths; the rule only polices src/ and bench/.
    auto diags = lintAs(
        {{"atomic_sanity_bad.cc", "tools/htlint/counters.cc"}});
    EXPECT_EQ(countRule(diags, "atomic-sanity"), 0);
}

// ------------------------------------------------------- shard-escape

TEST(HtlintShardEscape, FlagsTwoHopEscapeWithCallChainFlow)
{
    // The shard root and the racy global live two hops apart in
    // different TUs; neither file is suspicious alone.
    auto diags = lintAs(
        {{"shard_escape_tally.hh", "src/sim/tally.hh"},
         {"shard_escape_bad_root.cc", "src/sim/shard_worker.cc"},
         {"shard_escape_bad_helper.cc", "src/sim/tally.cc"}});
    ASSERT_EQ(countRule(diags, "shard-escape"), 1);
    for (const Diagnostic &d : diags) {
        if (d.rule != "shard-escape")
            continue;
        EXPECT_EQ(d.file, "src/sim/tally.cc");
        EXPECT_NE(d.message.find("hitTally"), std::string::npos);
        // Flow walks the chain from the shard root to the access.
        ASSERT_GE(d.flow.size(), 3u);
        EXPECT_NE(d.flow[0].note.find("shardWorkerBody"),
                  std::string::npos)
            << d.flow[0].note;
        EXPECT_NE(d.flow[1].note.find("recordShardHit"),
                  std::string::npos);
    }
}

TEST(HtlintShardEscape, AtomicAndLockGuardedStateIsShardSafe)
{
    auto diags = lintAs(
        {{"shard_escape_tally.hh", "src/sim/tally.hh"},
         {"shard_escape_bad_root.cc", "src/sim/shard_worker.cc"},
         {"shard_escape_good_helper.cc", "src/sim/tally.cc"}});
    EXPECT_EQ(countRule(diags, "shard-escape"), 0);
}

TEST(HtlintShardEscape, RacyHelperWithoutShardRootIsQuiet)
{
    // The same mutable global and helper, but nothing shard-side
    // reaches it: single-threaded use is fine.
    auto diags = lintAs(
        {{"shard_escape_tally.hh", "src/sim/tally.hh"},
         {"shard_escape_bad_helper.cc", "src/sim/tally.cc"}});
    EXPECT_EQ(countRule(diags, "shard-escape"), 0);
}

TEST(HtlintShardEscape, FlagsParenBraceAndThreadLocalGlobalRngs)
{
    // Namespace-scope `Random g(42);`, `Random g{42};` and a
    // thread_local Random, each read from a ShardContext body: all
    // three are shared between shards and all three hard-code a seed.
    const std::string name = "shard_global_rng_bad.cc";
    auto diags = lintAs({{name, "src/core/global_rng_bad.cc"}});
    EXPECT_EQ(countRule(diags, "shard-escape"), 3);
    EXPECT_EQ(countRule(diags, "seed-flow"), 3);
    for (const std::string var : {"g_paren", "g_brace", "t_rng"}) {
        const int line = fixtureLine(name, "Random " + var);
        bool escaped = false, seeded = false;
        for (const Diagnostic &d : diags) {
            escaped |= d.rule == "shard-escape" &&
                       d.message.find("'" + var + "'") != std::string::npos;
            seeded |= d.rule == "seed-flow" && d.line == line;
        }
        EXPECT_TRUE(escaped && seeded) << var;
    }
}

// The shard-isolation invariant, formerly its own rule, is held by
// shard-escape and seed-flow. The ported fixture reaches four shared
// declarations from a shard body; each is reported at its uses (which
// cite its file:line) or where declared -- or, if !@p flagged, not at all.
void
expectShardIsolation(const std::string &rel, bool flagged)
{
    const std::string name = "shard_isolation_bad.cc";
    auto diags = lintAs({{name, rel}});
    for (const char *decl :
         {"Random g_rng{42};", "static EventQueue g_queue;",
          "static Random worker_rng{7};", "static Registry registry;"}) {
        const int line = fixtureLine(name, decl);
        const std::string ref = rel + ":" + std::to_string(line) + ")";
        bool covered = false;
        for (const Diagnostic &d : diags)
            covered |= (d.rule == "shard-escape" || d.rule == "seed-flow") &&
                       (d.line == line ||
                        d.message.find(ref) != std::string::npos);
        EXPECT_EQ(covered, flagged) << "'" << decl << "' in " << rel;
    }
}

TEST(HtlintShardIsolation, FlagsSharedMutableStateAndSingletons)
{
    // Global Random, static EventQueue, static function-local Random,
    // and the state behind the lock-free Registry::instance().
    expectShardIsolation("src/sim/parallel_pool.cc", true);
}

TEST(HtlintShardIsolation, SingletonCallsOnlyPolicedInShardCode)
{
    // Shard code is what a shard root reaches, in bench/ as in src/
    // (unreached state is quiet: RacyHelperWithoutShardRootIsQuiet).
    expectShardIsolation("bench/shard_isolation_bad.cc", true);
}

TEST(HtlintShardIsolation, DoesNotApplyToTools)
{
    expectShardIsolation("tools/x/shard_isolation_bad.cc", false);
}

TEST(HtlintConcurrency, SeededConcurrentSourcesStayClean)
{
    // The concurrency rules were tuned against the real tree: the
    // trace sink, shard runtime, and parallel harness are the code
    // they police, and must lint clean without suppressions.
    auto root = std::filesystem::path(HTLINT_FIXTURE_DIR)
                    .parent_path()
                    .parent_path()
                    .parent_path();
    Project proj;
    for (const char *rel :
         {"src/sim/trace.hh", "src/sim/trace.cc", "src/sim/shard.hh",
          "src/sim/shard.cc", "src/sim/parallel.hh",
          "src/sim/parallel.cc", "src/sim/logging.hh",
          "src/sim/logging.cc"})
        ASSERT_TRUE(proj.addFile((root / rel).string(), rel));
    auto diags = proj.run({"lockset", "lock-order", "atomic-sanity",
                           "shard-escape"});
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule
                      << "] " << d.message;
}

// --------------------------------------------------------- seed-flow

TEST(HtlintSeedFlow, FlagsHardcodedSeedConstruction)
{
    Project proj;
    proj.addText("#include \"sim/random.hh\"\n"
                 "namespace hypertee {\n"
                 "unsigned f() { Random r(7); return r.next(); }\n"
                 "}\n",
                 "bench/bench_direct.cc");
    EXPECT_EQ(countRule(proj.run(), "seed-flow"), 1);
}

TEST(HtlintSeedFlow, AcceptsShardSeedConstruction)
{
    Project proj;
    proj.addText(
        "#include \"sim/shard.hh\"\n"
        "namespace hypertee {\n"
        "unsigned f(const ShardContext &ctx) {\n"
        "    Random r(shardSeed(ctx.seed, 3));\n"
        "    auto p = std::make_shared<Random>(ctx.seed);\n"
        "    return r.next();\n"
        "}\n"
        "}\n",
        "bench/bench_direct.cc");
    EXPECT_EQ(countRule(proj.run(), "seed-flow"), 0);
}

TEST(HtlintSeedFlow, FlagsImpureDataflowAcrossTuBoundary)
{
    // The construction is in the helper TU; the hard-coded value
    // arrives from a caller in another TU.
    auto diags = lintAs(
        {{"seed_flow_helper.cc", "bench/seed_flow_helper.cc"},
         {"seed_flow_caller_bad.cc", "bench/seed_flow_caller_bad.cc"}});
    ASSERT_EQ(countRule(diags, "seed-flow"), 1);
    for (const Diagnostic &d : diags)
        if (d.rule == "seed-flow") {
            EXPECT_EQ(d.file, "bench/seed_flow_helper.cc");
            EXPECT_NE(d.message.find("seed_flow_caller_bad.cc"),
                      std::string::npos);
        }
}

TEST(HtlintSeedFlow, AcceptsPureDataflowAcrossTuBoundary)
{
    auto diags = lintAs(
        {{"seed_flow_helper.cc", "bench/seed_flow_helper.cc"},
         {"seed_flow_caller_good.cc",
          "bench/seed_flow_caller_good.cc"}});
    EXPECT_EQ(countRule(diags, "seed-flow"), 0);
}

TEST(HtlintSeedFlow, ExemptsSeedInfrastructure)
{
    Project proj;
    proj.addText("namespace hypertee {\n"
                 "unsigned f() { Random r(7); return r.next(); }\n"
                 "}\n",
                 "src/sim/shard_ctx.cc");
    EXPECT_EQ(countRule(proj.run(), "seed-flow"), 0);
}

// ------------------------------------------------- pre-existing rules

TEST(HtlintStatRegistration, FlagsUnregisteredStat)
{
    auto diags = lintAs({{"stat_registration_bad.cc",
                          "bench/stat_registration_bad.cc"}});
    EXPECT_EQ(countRule(diags, "stat-registration"), 1);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("'lat'"), std::string::npos);
}

TEST(HtlintStatRegistration, AcceptsReferencesIntoShardStats)
{
    auto diags = lintAs({{"stat_registration_good.cc",
                          "src/comp/stat_registration_good.cc"}});
    EXPECT_EQ(countRule(diags, "stat-registration"), 0);
}

TEST(HtlintStatRegistration, TestLocalStatsAreExempt)
{
    // tests/ are scanned by the gate but test-local stats need no
    // export wiring.
    auto diags = lintAs({{"stat_registration_bad.cc",
                          "tests/sim/stat_registration_bad.cc"}});
    EXPECT_EQ(countRule(diags, "stat-registration"), 0);
}

TEST(HtlintNoWallclock, FlagsChronoTimeRandRandomDevice)
{
    auto diags =
        lintAs({{"wallclock_bad.cc", "src/sim/wallclock_bad.cc"}});
    EXPECT_EQ(countRule(diags, "no-wallclock"), 4);
}

TEST(HtlintNoWallclock, AcceptsEventQueueAndSimRandom)
{
    auto diags =
        lintAs({{"wallclock_good.cc", "src/sim/wallclock_good.cc"}});
    EXPECT_EQ(countRule(diags, "no-wallclock"), 0);
}

TEST(HtlintNoWallclock, OnlyAppliesToSrc)
{
    // Benches and tools may measure host time; the invariant guards
    // the simulator proper.
    auto diags =
        lintAs({{"wallclock_bad.cc", "tools/x/wallclock_bad.cc"}});
    EXPECT_EQ(countRule(diags, "no-wallclock"), 0);
}

TEST(HtlintNoRawOwningNew, FlagsFreeFunctionNew)
{
    auto diags =
        lintAs({{"raw_new_bad.cc", "src/core/raw_new_bad.cc"}});
    EXPECT_EQ(countRule(diags, "no-raw-owning-new"), 1);
}

TEST(HtlintHeaderHygiene, FlagsMissingGuardAndUsingNamespace)
{
    auto diags = lintAs({{"header_bad.hh", "src/core/header_bad.hh"}});
    EXPECT_EQ(countRule(diags, "header-hygiene"), 2);
}

TEST(HtlintHeaderHygiene, AcceptsGuardedHeaders)
{
    auto diags =
        lintAs({{"header_good.hh", "src/core/header_good.hh"},
                {"header_pragma_once.hh",
                 "src/core/header_pragma_once.hh"}});
    EXPECT_EQ(countRule(diags, "header-hygiene"), 0);
}

// ------------------------------------------------ hot-loop-dispatch

TEST(HtlintHotLoopDispatch, FlagsIndirectDispatchInAnnotatedLoops)
{
    auto diags = lintAs({{"hot_loop_dispatch_bad.cc",
                          "src/cpu/hot_loop_dispatch_bad.cc"}});
    // Two virtual calls through unique_ptr<Predictor>, one direct
    // std::function call, one through the FaultHook alias.
    EXPECT_EQ(countRule(diags, "hot-loop-dispatch"), 4);
}

TEST(HtlintHotLoopDispatch, AcceptsDevirtualizedAndColdPathShapes)
{
    auto diags = lintAs({{"hot_loop_dispatch_good.cc",
                          "src/cpu/hot_loop_dispatch_good.cc"}});
    EXPECT_EQ(countRule(diags, "hot-loop-dispatch"), 0);
}

TEST(HtlintHotLoopDispatch, SeededHotLoopsStayClean)
{
    // The annotations this rule was built for: the core engines and
    // the MMU translate fast path must never regrow per-op indirect
    // dispatch. Lint the real sources (plus the headers that declare
    // the members) and require silence.
    auto root = std::filesystem::path(HTLINT_FIXTURE_DIR)
                    .parent_path()
                    .parent_path()
                    .parent_path();
    Project proj;
    for (const char *rel :
         {"src/cpu/core.cc", "src/cpu/core.hh",
          "src/cpu/branch_predictor.hh", "src/mem/mmu.hh",
          "src/mem/mmu.cc"})
        ASSERT_TRUE(proj.addFile((root / rel).string(), rel));
    EXPECT_EQ(countRule(proj.run(), "hot-loop-dispatch"), 0);
}

// ------------------------------------------------------ suppressions

TEST(HtlintSuppression, AllowCommentSilencesFinding)
{
    // Three rand() calls: one excused same-line, one by an own-line
    // comment above, one reported.
    auto diags =
        lintAs({{"suppression.cc", "src/sim/suppression.cc"}});
    EXPECT_EQ(countRule(diags, "no-wallclock"), 1);
}

TEST(HtlintSuppression, AllowFileSilencesWholeFile)
{
    Project proj;
    proj.addText("// htlint: allow-file(no-wallclock)\n"
                 "unsigned f() { return rand(); }\n",
                 "src/sim/allow_file.cc");
    EXPECT_EQ(countRule(proj.run(), "no-wallclock"), 0);
}

TEST(HtlintSuppression, MultiRuleAllowSilencesEachNamedRule)
{
    Project proj;
    proj.addText("// htlint: allow(no-wallclock,no-raw-owning-new)\n"
                 "int *f() { srand(1); return new int(3); }\n",
                 "src/sim/multi.cc");
    auto diags = proj.run();
    EXPECT_EQ(countRule(diags, "no-wallclock"), 0);
    EXPECT_EQ(countRule(diags, "no-raw-owning-new"), 0);
}

TEST(HtlintSuppression, TrailingCommentDoesNotCoverNextLine)
{
    // A trailing allow() excuses its own line only; an own-line
    // allow() excuses the next line only.
    Project proj;
    proj.addText("unsigned f() { return rand(); } "
                 "// htlint: allow(no-wallclock)\n"
                 "unsigned g() { return rand(); }\n",
                 "src/sim/trailing.cc");
    auto diags = proj.run();
    ASSERT_EQ(countRule(diags, "no-wallclock"), 1);
    EXPECT_EQ(diags[0].line, 2);
}

TEST(HtlintSuppression, AllowSitesAuditListsEveryMention)
{
    Project proj;
    proj.addText("// htlint: allow-file(no-wallclock)\n"
                 "// htlint: allow(no-raw-owning-new,seed-flow)\n"
                 "int x;\n",
                 "src/sim/audit.cc");
    const auto &sites = proj.files()[0]->allowSites();
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0].rule, "no-wallclock");
    EXPECT_TRUE(sites[0].fileWide);
    EXPECT_EQ(sites[1].rule, "no-raw-owning-new");
    EXPECT_FALSE(sites[1].fileWide);
    EXPECT_EQ(sites[2].rule, "seed-flow");
    EXPECT_EQ(sites[2].line, 2);
}

// ------------------------------------------------------------ driver

TEST(HtlintDriver, RuleFilterRunsOnlySelectedRules)
{
    Project proj;
    proj.addText("unsigned f() { return rand(); }\n"
                 "int *g() { return new int(3); }\n",
                 "src/sim/two_rules.cc");
    auto all = proj.run();
    EXPECT_EQ(countRule(all, "no-wallclock"), 1);
    EXPECT_EQ(countRule(all, "no-raw-owning-new"), 1);
    auto only = proj.run({"no-wallclock"});
    EXPECT_EQ(countRule(only, "no-wallclock"), 1);
    EXPECT_EQ(countRule(only, "no-raw-owning-new"), 0);
}

TEST(HtlintDriver, EveryRuleHasNameDescriptionAndOneCheck)
{
    EXPECT_GE(allRules().size(), 9u);
    for (const RuleInfo &r : allRules()) {
        EXPECT_NE(r.name, nullptr);
        EXPECT_GT(std::string(r.description).size(), 10u);
        // Exactly one of the per-file / whole-program hooks.
        EXPECT_NE(r.check == nullptr, r.checkProject == nullptr)
            << r.name;
    }
}

TEST(HtlintDriver, UnknownRuleInRulesFlagIsHardErrorWithHint)
{
    Options opts;
    std::ostringstream err;
    const char *argv[] = {"htlint", "--rules=mediaton-path", "src"};
    EXPECT_FALSE(parseArgs(3, argv, opts, err));
    EXPECT_NE(err.str().find("unknown rule"), std::string::npos);
    EXPECT_NE(err.str().find("did you mean 'mediation-path'"),
              std::string::npos);
}

TEST(HtlintDriver, UnknownRuleInAllowCommentIsHardError)
{
    // A stale suppression naming a nonexistent rule must fail the
    // run (exit 2), not silently suppress nothing. Known rules in
    // allow() comments pass validation.
    Options opts;
    opts.paths = {fixture("suppression.cc")};
    std::ostringstream out1, err1;
    EXPECT_EQ(runHtlint(opts, out1, err1), 0) << err1.str();

    std::string tmp = ::testing::TempDir() + "/bad_allow.cc";
    {
        std::ofstream f(tmp);
        f << "// htlint: allow(no-such-rule)\nint x;\n";
    }
    opts.paths = {tmp};
    std::ostringstream out2, err2;
    EXPECT_EQ(runHtlint(opts, out2, err2), 2);
    EXPECT_NE(err2.str().find("unknown rule 'no-such-rule'"),
              std::string::npos);
}

TEST(HtlintDriver, ClosestRuleNameSuggestsOnlyPlausibleTypos)
{
    EXPECT_EQ(closestRuleName("lock-ordr"), "lock-order");
    EXPECT_EQ(closestRuleName("seed-flaw"), "seed-flow");
    EXPECT_EQ(closestRuleName("completely-unrelated-name"), "");
}

TEST(HtlintDriver, OverlappingPathArgumentsScanEachFileOnce)
{
    std::string dir = ::testing::TempDir() + "/htlint_dedupe";
    std::filesystem::create_directories(dir + "/sub");
    {
        std::ofstream f(dir + "/sub/a.cc");
        f << "int x;\n";
    }
    std::ostringstream err;
    // The same tree named three ways: parent, child, and a
    // non-normalized spelling of the child.
    auto files = collectFiles(
        {dir, dir + "/sub", dir + "/./sub"}, err);
    ASSERT_EQ(files.size(), 1u) << err.str();
}

TEST(HtlintDriver, FixtureDirectoriesAreExcludedByDefault)
{
    std::string dir = ::testing::TempDir() + "/htlint_fixdir";
    std::filesystem::create_directories(dir + "/fixtures");
    {
        std::ofstream f(dir + "/fixtures/bad.cc");
        f << "int x;\n";
        std::ofstream g(dir + "/real.cc");
        g << "int y;\n";
    }
    std::ostringstream err;
    auto files = collectFiles({dir}, err);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_NE(files[0].find("real.cc"), std::string::npos);
    files = collectFiles({dir}, err, /*default_excludes=*/false);
    EXPECT_EQ(files.size(), 2u);
}

// ------------------------------------------------------- secret-flow

/** Diagnostics of the secret-flow rule only. */
std::vector<Diagnostic>
secretFlows(const std::vector<Diagnostic> &diags)
{
    std::vector<Diagnostic> out;
    for (const Diagnostic &d : diags)
        if (d.rule == "secret-flow")
            out.push_back(d);
    return out;
}

TEST(HtlintSecretFlow, FlagsKeyIntoTraceMacro)
{
    // One leak through HT_TRACE_INSTANT1, one through a span name.
    auto flows = secretFlows(lintAs(
        {{"secret_flow_trace_bad.cc", "src/ems/trace_bad.cc"}}));
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_NE(flows[0].message.find("trace sink 'HT_TRACE_INSTANT1'"),
              std::string::npos);
    EXPECT_NE(flows[1].message.find("trace sink 'span'"),
              std::string::npos);
    for (const Diagnostic &d : flows) {
        EXPECT_NE(d.message.find("memoryKey"), std::string::npos)
            << d.message;
        EXPECT_FALSE(d.flow.empty())
            << "dataflow diagnostics must carry the source-to-sink path";
    }
}

TEST(HtlintSecretFlow, AcceptsDigestIntoTrace)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_trace_good.cc",
                                     "src/ems/trace_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, FlagsKeyIntoHostLog)
{
    auto flows = secretFlows(
        lintAs({{"secret_flow_log_bad.cc", "src/ems/log_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("log"), std::string::npos);
}

TEST(HtlintSecretFlow, AcceptsNeutralFactsAndMacTags)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_log_good.cc",
                                     "src/ems/log_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, FlagsKeyBytesSampledIntoStats)
{
    auto flows = secretFlows(lintAs(
        {{"secret_flow_stats_bad.cc", "src/ems/stats_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("stats-export"),
              std::string::npos);
}

TEST(HtlintSecretFlow, AcceptsSizeSamples)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_stats_good.cc",
                                     "src/ems/stats_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, FlagsKeyDerivedStatName)
{
    // ShardStats exports a stat's name verbatim as a JSON key.
    auto flows = secretFlows(lintAs(
        {{"secret_flow_stats_name_bad.cc", "src/ems/stats_name_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("stats-export"),
              std::string::npos);
}

TEST(HtlintSecretFlow, FlagsRawKeyInMailboxPayload)
{
    // Field-sensitive: resp.payload is tainted, and pushing the
    // whole struct must still be caught.
    auto flows = secretFlows(lintAs(
        {{"secret_flow_mailbox_bad.cc", "src/ems/mbox_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("mailbox"), std::string::npos);
}

TEST(HtlintSecretFlow, FlagsKeyMovedIntoMailbox)
{
    // Real pushes move the response in; std::move must not launder
    // the taint on its way to the sink.
    auto flows = secretFlows(lintAs({{"secret_flow_mailbox_moved_bad.cc",
                                      "src/ems/mbox_moved_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("mailbox"), std::string::npos);
}

TEST(HtlintSecretFlow, AcceptsEncryptedMailboxPayload)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_mailbox_good.cc",
                                     "src/ems/mbox_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, FlagsEfuseSecretWrittenToCsMemory)
{
    auto flows = secretFlows(lintAs(
        {{"secret_flow_csmem_bad.cc", "src/ems/csmem_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("cs-memory"), std::string::npos);
    EXPECT_NE(flows[0].message.find("sealedKey"), std::string::npos);
}

TEST(HtlintSecretFlow, FlagsPlainPageWriteback)
{
    // Enclave-private page contents via the mediated port: readCs
    // through _port is a source, unencrypted writeCs the leak.
    auto flows = secretFlows(lintAs(
        {{"secret_flow_page_bad.cc", "src/ems/page_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("readCs"), std::string::npos)
        << flows[0].message;
}

TEST(HtlintSecretFlow, AcceptsEncryptedWriteback)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_csmem_good.cc",
                                     "src/ems/csmem_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, FlagsStdoutInsertionChain)
{
    auto flows = secretFlows(lintAs(
        {{"secret_flow_stdout_bad.cc", "src/ems/stdout_bad.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_NE(flows[0].message.find("cout"), std::string::npos);
}

TEST(HtlintSecretFlow, AcceptsPublicKeysOnStdout)
{
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_stdout_good.cc",
                                     "src/ems/stdout_good.cc"}}))
                    .empty());
}

TEST(HtlintSecretFlow, CrossTuLeakNeedsInterproceduralView)
{
    // Each half alone is clean...
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_xtu_a.cc",
                                     "src/ems/ship.cc"}}))
                    .empty());
    EXPECT_TRUE(secretFlows(lintAs({{"secret_flow_xtu_b.cc",
                                     "src/core/forward.cc"}}))
                    .empty());
    // ...but linted together the sealingKey reaches inform() through
    // forwardToHost's parameter, reported at the sink TU.
    auto flows = secretFlows(
        lintAs({{"secret_flow_xtu_a.cc", "src/ems/ship.cc"},
                {"secret_flow_xtu_b.cc", "src/core/forward.cc"}}));
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].file, "src/core/forward.cc");
    EXPECT_NE(flows[0].message.find("sealingKey"), std::string::npos);
    // The chain must cross the TU boundary.
    bool crosses = false;
    for (const FlowStep &s : flows[0].flow)
        if (s.file == "src/ems/ship.cc")
            crosses = true;
    EXPECT_TRUE(crosses) << "flow should include the caller TU";
}

TEST(HtlintSecretFlow, DeclassifyWithReasonSuppresses)
{
    EXPECT_TRUE(
        secretFlows(lintAs({{"secret_flow_declassify_good.cc",
                             "src/ems/declass_good.cc"}}))
            .empty());
}

TEST(HtlintSecretFlow, EmptyDeclassifyReasonReportedAndIgnored)
{
    // A reason-less declassify() is itself a finding *and* fails to
    // suppress the underlying leak.
    auto flows = secretFlows(lintAs(
        {{"secret_flow_declassify_bad.cc", "src/ems/declass_bad.cc"}}));
    ASSERT_EQ(flows.size(), 2u);
    bool empty_reason = false, leak = false;
    for (const Diagnostic &d : flows) {
        if (d.message.find("non-empty reason") != std::string::npos)
            empty_reason = true;
        if (d.message.find("log") != std::string::npos)
            leak = true;
    }
    EXPECT_TRUE(empty_reason);
    EXPECT_TRUE(leak);
}

// ------------------------------------------------------------- SARIF

TEST(HtlintSarif, OutputIsValidSarif210WithDeclaredRules)
{
    std::vector<Diagnostic> diags = {
        {"src/a.cc", 3, "mediation-path", "chain \"quoted\"\n", {}},
        {"src/b.cc", 7, "lockset", "unlocked", {}},
    };
    std::ostringstream os;
    writeSarif(diags, os);
    std::string text = os.str();

    EXPECT_TRUE(hypertee::jsonLooksValid(text)) << text;
    EXPECT_NE(text.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(text.find("sarif-schema-2.1.0.json"),
              std::string::npos);
    // Every fired rule present both as a result and in the driver's
    // rule metadata.
    for (const char *rule : {"mediation-path", "lockset"}) {
        EXPECT_NE(text.find(std::string("\"ruleId\": \"") + rule),
                  std::string::npos);
        EXPECT_NE(text.find(std::string("\"id\": \"") + rule),
                  std::string::npos);
    }
    // All registered rules are declared even when they did not fire.
    for (const RuleInfo &r : allRules())
        EXPECT_NE(text.find(std::string("\"id\": \"") + r.name),
                  std::string::npos);
    // String escaping survived the quoted message.
    EXPECT_NE(text.find("chain \\\"quoted\\\"\\n"),
              std::string::npos);
}

TEST(HtlintSarif, CodeFlowsEmittedForDataflowDiagnostics)
{
    Diagnostic d{"src/ems/leak.cc", 14, "secret-flow",
                 "enclave secret reaches log sink", {}};
    d.flow = {{"src/ems/key.cc", 3, "secret source 'memoryKey'"},
              {"src/ems/leak.cc", 14, "sink 'inform'"}};
    std::ostringstream os;
    writeSarif({d}, os);
    std::string text = os.str();
    EXPECT_TRUE(hypertee::jsonLooksValid(text)) << text;
    EXPECT_NE(text.find("\"codeFlows\""), std::string::npos);
    EXPECT_NE(text.find("\"threadFlows\""), std::string::npos);
    EXPECT_NE(text.find("\"relatedLocations\""), std::string::npos);
    EXPECT_NE(text.find("secret source 'memoryKey'"),
              std::string::npos);
    EXPECT_NE(text.find("src/ems/key.cc"), std::string::npos);
}

TEST(HtlintSarif, EmptyRunIsValidAndExitsZero)
{
    std::ostringstream os;
    writeSarif({}, os);
    EXPECT_TRUE(hypertee::jsonLooksValid(os.str()));
    EXPECT_NE(os.str().find("\"results\": ["), std::string::npos);
}

// ------------------------------------------------------- drift guard

TEST(HtlintDocs, ReadmeDocumentsExactlyTheRegisteredRules)
{
    std::ifstream readme(HTLINT_README_PATH);
    ASSERT_TRUE(readme.is_open()) << HTLINT_README_PATH;
    std::set<std::string> documented;
    std::string line;
    while (std::getline(readme, line)) {
        // Rule sections are "### `rule-name`" headings.
        if (line.rfind("### `", 0) == 0) {
            std::size_t end = line.find('`', 5);
            if (end != std::string::npos)
                documented.insert(line.substr(5, end - 5));
        }
    }
    std::set<std::string> registered;
    for (const RuleInfo &r : allRules())
        registered.insert(r.name);
    EXPECT_EQ(documented, registered)
        << "tools/htlint/README.md rule sections have drifted from "
           "--list-rules";
}

TEST(HtlintSuppressions, NoWallclockExemptionsStayInPerfModule)
{
    // Wall-clock reads are banned in src/ so simulated time cannot
    // leak into model state; src/sim/perf.cc is the one sanctioned
    // exception (self-measurement of the simulator — its wall-time
    // numbers feed BENCH_*.json, never simulation behaviour). Every
    // `allow(no-wallclock)` must live there; a suppression appearing
    // anywhere else means someone is smuggling host time into the
    // model and must be reviewed, not silenced.
    namespace fs = std::filesystem;
    const fs::path repo_root =
        fs::path(HTLINT_README_PATH).parent_path() // tools/htlint
            .parent_path()                         // tools
            .parent_path();                        // repo root
    std::vector<std::string> offenders;
    for (const char *top : {"src", "bench", "tools", "tests"}) {
        for (const auto &entry :
             fs::recursive_directory_iterator(repo_root / top)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".hh" && ext != ".cc" && ext != ".cpp" &&
                ext != ".h")
                continue;
            std::ifstream in(entry.path());
            std::string line;
            std::size_t lineno = 0;
            while (std::getline(in, line)) {
                ++lineno;
                if (line.find("allow(no-wallclock)") ==
                        std::string::npos &&
                    line.find("allow-file(no-wallclock)") ==
                        std::string::npos)
                    continue;
                const std::string rel =
                    fs::relative(entry.path(), repo_root).string();
                // The rule's own test fixtures exercise the
                // suppression syntax and don't count.
                if (rel.rfind("tests/tools/fixtures/", 0) == 0)
                    continue;
                if (rel != "src/sim/perf.cc" &&
                    rel != "tests/tools/htlint_test.cc")
                    offenders.push_back(rel + ":" +
                                        std::to_string(lineno));
            }
        }
    }
    EXPECT_TRUE(offenders.empty())
        << "no-wallclock suppressed outside src/sim/perf.cc:\n  "
        << [&] {
               std::string joined;
               for (const std::string &o : offenders)
                   joined += o + "\n  ";
               return joined;
           }();
}

} // namespace
