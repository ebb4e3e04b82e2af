/**
 * @file
 * The built-in htlint rules. Each encodes one HyperTEE invariant;
 * tools/htlint/README.md documents the invariant each protects and
 * how to suppress a finding.
 */

#include "tools/htlint/rules.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>

#include "tools/htlint/callgraph.hh"
#include "tools/htlint/index.hh"
#include "tools/htlint/locks.hh"
#include "tools/htlint/taint.hh"

namespace hypertee::htlint
{

namespace
{

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
inSrcOrBench(const SourceFile &f)
{
    return startsWith(f.relPath(), "src/") ||
           startsWith(f.relPath(), "bench/");
}

void
report(std::vector<Diagnostic> &out, const SourceFile &f, int line,
       const char *rule, std::string message)
{
    out.push_back({f.relPath(), line, rule, std::move(message), {}});
}

bool
isAccessMethod(const std::string &s)
{
    static const std::array<const char *, 7> names = {
        "read",      "write",      "zero",   "read64",
        "write64",   "readBytes",  "writeBytes"};
    return std::find_if(names.begin(), names.end(), [&](const char *n) {
               return s == n;
           }) != names.end();
}

bool
isMediationGuard(const std::string &s)
{
    return s == "overlapsRange" || s == "containsRange" ||
           s == "isEnclavePage" || s == "isEnclaveAddr" ||
           s == "csAccessAllowed" || s == "setEnclavePage" ||
           s == "setBitmapBit" || s == "EnclaveBitmap";
}

bool
containsNoCase(const std::string &s, const std::string &needle)
{
    std::string lower;
    lower.reserve(s.size());
    for (char c : s)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return lower.find(needle) != std::string::npos;
}

/**
 * Names of variables/members of type PhysicalMemory declared in
 * @p f (plain, pointer, reference, or unique_ptr/shared_ptr).
 */
std::set<std::string>
physMemVars(const SourceFile &f)
{
    std::set<std::string> vars;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.inDirective || t.kind != TokKind::Identifier ||
            t.text != "PhysicalMemory")
            continue;
        if (i > 0 && (toks[i - 1].text == "class" ||
                      toks[i - 1].text == "struct"))
            continue; // forward declaration
        if (i + 1 < toks.size() && toks[i + 1].text == "::")
            continue; // qualified use, not a declaration
        std::size_t j = i + 1;
        // unique_ptr<PhysicalMemory> name
        if (i > 0 && toks[i - 1].text == "<" && j < toks.size() &&
            toks[j].text == ">")
            ++j;
        while (j < toks.size() && (toks[j].text == "*" ||
                                   toks[j].text == "&" ||
                                   toks[j].text == "const"))
            ++j;
        if (j >= toks.size() ||
            toks[j].kind != TokKind::Identifier)
            continue;
        // `PhysicalMemory name(...)` at class/namespace scope is a
        // function declaration, inside a function it is a variable
        // with constructor arguments.
        if (j + 1 < toks.size() && toks[j + 1].text == "(" &&
            f.enclosingFunction(i) < 0)
            continue;
        vars.insert(toks[j].text);
    }
    return vars;
}

// -------------------------------------------------------- mediation-path

/**
 * Does the token range (open, close) of @p f contain an
 * ownership-bitmap / range-check guard? Beyond the named guard
 * functions, a claim/release/ownedBy call whose receiver mentions
 * "owner" counts (the EMS zero-then-claim idiom).
 */
bool
rangeHasGuard(const SourceFile &f, std::size_t open, std::size_t close)
{
    const auto &toks = f.tokens();
    for (std::size_t k = open + 1; k < close && k < toks.size(); ++k) {
        const Token &g = toks[k];
        if (g.inDirective || g.kind != TokKind::Identifier)
            continue;
        if (isMediationGuard(g.text))
            return true;
        if ((g.text == "claim" || g.text == "release" ||
             g.text == "ownedBy") &&
            k >= 2 &&
            (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
            toks[k - 2].kind == TokKind::Identifier &&
            containsNoCase(toks[k - 2].text, "owner"))
            return true;
    }
    return false;
}

/** CS-side dirs whose unguarded roots are mediation violations. */
bool
isMediationOrigin(const std::string &rel)
{
    return startsWith(rel, "src/emcall/") ||
           startsWith(rel, "src/fabric/") ||
           startsWith(rel, "src/cpu/") || startsWith(rel, "bench/");
}

void
checkMediationPath(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    const CallGraph &cg = proj.callGraph();
    const auto &files = proj.files();
    const auto &fns = idx.functions();

    auto fn_has_guard = [&](int fn) {
        const FunctionDef &d = fns[static_cast<std::size_t>(fn)];
        return rangeHasGuard(*files[static_cast<std::size_t>(
                                 d.fileIdx)],
                             d.open, d.close);
    };
    auto fn_label = [&](int fn) {
        const FunctionDef &d = fns[static_cast<std::size_t>(fn)];
        std::string name = d.className.empty()
                               ? d.name
                               : d.className + "::" + d.name;
        return name + " (" +
               files[static_cast<std::size_t>(d.fileIdx)]->relPath() +
               ":" + std::to_string(d.line) + ")";
    };

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile &f = *files[fi];
        if (!inSrcOrBench(f) || startsWith(f.relPath(), "src/mem/"))
            continue;

        std::set<std::string> vars = physMemVars(f);
        if (const SourceFile *pair = proj.pairOf(f)) {
            std::set<std::string> pv = physMemVars(*pair);
            vars.insert(pv.begin(), pv.end());
        }
        const auto &toks = f.tokens();

        for (std::size_t i = 2; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier ||
                !isAccessMethod(t.text))
                continue;
            if (i + 1 >= toks.size() || toks[i + 1].text != "(")
                continue;
            const Token &sep = toks[i - 1];
            if (sep.text != "." && sep.text != "->")
                continue;
            const Token &recv = toks[i - 2];
            bool phys = false;
            if (recv.kind == TokKind::Identifier &&
                vars.count(recv.text)) {
                phys = true;
            } else if (recv.text == ")" && i >= 4 &&
                       toks[i - 3].text == "(" &&
                       toks[i - 4].kind == TokKind::Identifier &&
                       proj.physMemAccessors().count(
                           toks[i - 4].text)) {
                phys = true; // e.g. sys.csMem().write(...)
            }
            if (!phys)
                continue;

            int sink_fn = idx.functionAt(static_cast<int>(fi), i);
            if (sink_fn < 0) {
                // Access at file/namespace scope: no guard possible.
                if (isMediationOrigin(f.relPath()))
                    report(out, f, t.line, "mediation-path",
                           "PhysicalMemory::" + t.text +
                               " at file scope with no possible "
                               "ownership check");
                continue;
            }
            if (fn_has_guard(sink_fn))
                continue; // mediated locally

            // Walk backwards through src/bench callers until every
            // path is cut by a guard-holding function, or an
            // unguarded CS-side root is reached.
            std::map<int, int> parent; // fn -> next fn toward sink
            std::deque<int> todo;
            parent[sink_fn] = -1;
            todo.push_back(sink_fn);
            int bad_root = -1;
            while (!todo.empty() && bad_root < 0) {
                int cur = todo.front();
                todo.pop_front();
                bool has_caller = false;
                for (const CallerEdge &e : cg.callersOf(cur)) {
                    const CallSite &site =
                        idx.calls()[static_cast<std::size_t>(
                            e.callSiteIdx)];
                    const SourceFile &cf =
                        *files[static_cast<std::size_t>(
                            site.fileIdx)];
                    if (!inSrcOrBench(cf))
                        continue; // test-only edge
                    has_caller = true;
                    if (e.callerFn < 0) {
                        // Call at file scope: a root by definition.
                        if (isMediationOrigin(cf.relPath())) {
                            bad_root = cur;
                            break;
                        }
                        continue;
                    }
                    if (parent.count(e.callerFn))
                        continue;
                    if (fn_has_guard(e.callerFn)) {
                        parent[e.callerFn] = cur; // cut, but visited
                        continue;
                    }
                    parent[e.callerFn] = cur;
                    todo.push_back(e.callerFn);
                }
                if (!has_caller) {
                    const FunctionDef &d =
                        fns[static_cast<std::size_t>(cur)];
                    if (isMediationOrigin(
                            files[static_cast<std::size_t>(
                                      d.fileIdx)]
                                ->relPath()))
                        bad_root = cur;
                }
            }
            if (bad_root < 0)
                continue;

            std::string chain = fn_label(bad_root);
            for (int n = parent[bad_root]; n >= 0; n = parent[n]) {
                chain += " -> " + fn_label(n);
                if (n == sink_fn)
                    break;
            }
            report(out, f, t.line, "mediation-path",
                   "PhysicalMemory::" + t.text +
                       " is reachable from a CS-side entry point "
                       "with no ownership-bitmap/range check on the "
                       "path: " + chain);
        }
    }
}

// ------------------------------------------------------------- seed-flow

/** Outcome of classifying where a seed expression's value comes from. */
enum class SeedFlow
{
    Pure,    ///< derived from shardSeed/ShardContext/CLI seed
    Impure,  ///< a literal or unrelated value
    Unknown, ///< depends only on enclosing-function parameters
};

/** Type keywords/utility names that never carry seed provenance. */
bool
isSeedNeutral(const std::string &s)
{
    static const std::set<std::string> names = {
        "std",         "size_t",      "uint64_t",   "uint32_t",
        "uint16_t",    "uint8_t",     "int64_t",    "int32_t",
        "Addr",        "Tick",        "EnclaveId",  "static_cast",
        "const_cast",  "reinterpret_cast", "dynamic_cast",
        "unsigned",    "int",         "long",       "auto",
        "const",
    };
    return names.count(s) > 0;
}

struct SeedFlowCtx
{
    const Project &proj;
    const ProjectIndex &idx;
    const CallGraph &cg;
    /** (fnIdx, paramIdx) -> resolved flow (cycle guard + memo). */
    std::map<std::pair<int, int>, SeedFlow> memo;
    /** Caller site that injected the impure value, for the report. */
    std::string offender;
};

SeedFlow classifyParam(SeedFlowCtx &ctx, int fn_idx, int param_idx,
                       int depth);

/**
 * Classify the argument tokens [begin, end) of file @p file_idx:
 * Pure when at least one seed-derived atom appears and nothing
 * impure does.
 */
SeedFlow
classifyRange(SeedFlowCtx &ctx, int file_idx, std::size_t begin,
              std::size_t end, int depth)
{
    const SourceFile &f =
        *ctx.proj.files()[static_cast<std::size_t>(file_idx)];
    const auto &toks = f.tokens();
    int enclosing = ctx.idx.functionAt(file_idx, begin);
    const FunctionDef *encl_fn =
        enclosing >= 0
            ? &ctx.idx.functions()[static_cast<std::size_t>(
                  enclosing)]
            : nullptr;

    bool pure = false;
    bool unknown = false;
    for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.inDirective || t.kind != TokKind::Identifier)
            continue;
        if (k + 1 < toks.size() && (toks[k + 1].text == "." ||
                                    toks[k + 1].text == "->" ||
                                    toks[k + 1].text == "::"))
            continue; // object/qualifier of a member access
        if (isSeedNeutral(t.text))
            continue;
        if (containsNoCase(t.text, "seed") ||
            containsNoCase(t.text, "rng")) {
            pure = true;
            // A seed-deriving call vouches for its own arguments.
            if (k + 1 < toks.size() && toks[k + 1].text == "(") {
                int d = toks[k + 1].parenDepth;
                while (k + 1 < end && k + 1 < toks.size() &&
                       !(toks[k + 1].text == ")" &&
                         toks[k + 1].parenDepth == d))
                    ++k;
            }
            continue;
        }
        if (encl_fn) {
            auto pit = std::find(encl_fn->params.begin(),
                                 encl_fn->params.end(), t.text);
            if (pit != encl_fn->params.end()) {
                SeedFlow pf = classifyParam(
                    ctx, enclosing,
                    static_cast<int>(pit - encl_fn->params.begin()),
                    depth + 1);
                if (pf == SeedFlow::Impure)
                    return SeedFlow::Impure;
                if (pf == SeedFlow::Pure)
                    pure = true;
                else
                    unknown = true;
                continue;
            }
        }
        if (ctx.offender.empty())
            ctx.offender = f.relPath() + ":" +
                           std::to_string(t.line) + " ('" + t.text +
                           "')";
        return SeedFlow::Impure;
    }
    if (pure)
        return SeedFlow::Pure;
    if (unknown)
        return SeedFlow::Unknown;
    // Literals only (e.g. `Random(7)`): a hard-coded seed that
    // ignores the shard/CLI seed entirely.
    if (ctx.offender.empty())
        ctx.offender = f.relPath() + ":" +
                       std::to_string(begin < toks.size()
                                          ? toks[begin].line
                                          : 0) +
                       " (literal seed)";
    return SeedFlow::Impure;
}

/** What flows into parameter @p param_idx of @p fn_idx, over every
 *  call site in the project? */
SeedFlow
classifyParam(SeedFlowCtx &ctx, int fn_idx, int param_idx, int depth)
{
    if (depth > 8)
        return SeedFlow::Impure; // give up on deep chains
    auto key = std::make_pair(fn_idx, param_idx);
    auto it = ctx.memo.find(key);
    if (it != ctx.memo.end())
        return it->second;
    ctx.memo[key] = SeedFlow::Unknown; // cycle guard

    SeedFlow result = SeedFlow::Unknown;
    bool any_site = false;
    for (const CallerEdge &e : ctx.cg.callersOf(fn_idx)) {
        const CallSite &site =
            ctx.idx.calls()[static_cast<std::size_t>(e.callSiteIdx)];
        if (param_idx >= static_cast<int>(site.args.size()))
            continue; // defaulted argument: trust the default
        any_site = true;
        const auto &range =
            site.args[static_cast<std::size_t>(param_idx)];
        SeedFlow af = classifyRange(ctx, site.fileIdx, range.first,
                                    range.second, depth + 1);
        if (af == SeedFlow::Impure) {
            result = SeedFlow::Impure;
            break;
        }
        if (af == SeedFlow::Pure)
            result = SeedFlow::Pure;
    }
    if (!any_site)
        result = SeedFlow::Impure; // unreachable: cannot prove
    ctx.memo[key] = result;
    return result;
}

void
checkSeedFlow(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    const CallGraph &cg = proj.callGraph();
    const auto &files = proj.files();

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile &f = *files[fi];
        // src/sim/ is the seed infrastructure itself (ShardContext
        // construction from the CLI seed happens there).
        if (!inSrcOrBench(f) || startsWith(f.relPath(), "src/sim/"))
            continue;
        const auto &toks = f.tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier)
                continue;

            // The three construction shapes: `Random(...)`
            // temporaries, `Random name(...)`/`Random name{...}`
            // locals and globals, and make_shared/make_unique<Random>.
            std::size_t arg_open = 0;
            if (t.text == "Random") {
                if (i > 0 && (toks[i - 1].text == "class" ||
                              toks[i - 1].text == "struct" ||
                              toks[i - 1].text == "<"))
                    continue;
                if (i + 1 < toks.size() &&
                    toks[i + 1].text == "(") {
                    if (i > 0 &&
                        toks[i - 1].kind == TokKind::Identifier)
                        continue; // `Type Random(` -- not a ctor
                    arg_open = i + 1;
                } else if (i + 2 < toks.size() &&
                           toks[i + 1].kind == TokKind::Identifier &&
                           (toks[i + 2].text == "(" ||
                            toks[i + 2].text == "{")) {
                    // Skip functions, and members: constructors seed them.
                    int b = f.enclosingBlock(i);
                    if ((b >= 0 &&
                         f.blocks()[static_cast<std::size_t>(b)].kind ==
                             Block::Kind::Type) ||
                        f.declaresFunction(i + 1))
                        continue;
                    arg_open = i + 2;
                } else {
                    continue;
                }
            } else if ((t.text == "make_shared" ||
                        t.text == "make_unique") &&
                       i + 4 < toks.size() &&
                       toks[i + 1].text == "<" &&
                       toks[i + 2].text == "Random" &&
                       toks[i + 3].text == ">" &&
                       toks[i + 4].text == "(") {
                arg_open = i + 4;
            } else {
                continue;
            }

            // Find the matching close of the argument list.
            const std::string close_text =
                toks[arg_open].text == "{" ? "}" : ")";
            int depth = close_text == ")"
                            ? toks[arg_open].parenDepth
                            : toks[arg_open].braceDepth;
            std::size_t arg_close = arg_open + 1;
            while (arg_close < toks.size() &&
                   !(toks[arg_close].text == close_text &&
                     (close_text == ")"
                          ? toks[arg_close].parenDepth
                          : toks[arg_close].braceDepth) == depth))
                ++arg_close;
            if (arg_close == arg_open + 1)
                continue; // `Random r;` / `Random()`: default state

            SeedFlowCtx ctx{proj, idx, cg, {}, {}};
            SeedFlow flow =
                classifyRange(ctx, static_cast<int>(fi),
                              arg_open + 1, arg_close, 0);
            if (flow == SeedFlow::Pure)
                continue;
            std::string why =
                ctx.offender.empty()
                    ? std::string("value not derived from any "
                                  "seed-carrying expression")
                    : "impure value from " + ctx.offender;
            report(out, f, t.line, "seed-flow",
                   "Random constructed from a value outside the "
                   "ShardContext/shardSeed/CLI-seed dataflow (" +
                       why +
                       ") -- derive every RNG seed via "
                       "shardSeed() so runs stay reproducible");
        }
    }
}

// ------------------------------------------------------ stat-registration

bool
isStatType(const std::string &s)
{
    return s == "Scalar" || s == "Average" || s == "Distribution";
}

/** Identifiers appearing inside registerScalar/... call arguments. */
std::set<std::string>
registeredStatNames(const SourceFile &f)
{
    std::set<std::string> names;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier ||
            (t.text != "registerScalar" &&
             t.text != "registerAverage" &&
             t.text != "registerDistribution"))
            continue;
        if (toks[i + 1].text != "(")
            continue;
        int depth = toks[i + 1].parenDepth;
        for (std::size_t j = i + 2; j < toks.size(); ++j) {
            if (toks[j].text == ")" && toks[j].parenDepth == depth)
                break;
            if (toks[j].kind == TokKind::Identifier)
                names.insert(toks[j].text);
        }
    }
    return names;
}

void
checkStatRegistration(const SourceFile &f, const Project &proj,
                      std::vector<Diagnostic> &out)
{
    if (!inSrcOrBench(f))
        return; // test-local stats need no export wiring
    const auto &toks = f.tokens();
    std::set<std::string> registered = registeredStatNames(f);
    if (const SourceFile *pair = proj.pairOf(f)) {
        std::set<std::string> pr = registeredStatNames(*pair);
        registered.insert(pr.begin(), pr.end());
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.inDirective || t.kind != TokKind::Identifier ||
            !isStatType(t.text) || t.parenDepth > 0)
            continue;
        if (i > 0 && (toks[i - 1].text == "class" ||
                      toks[i - 1].text == "struct" ||
                      toks[i - 1].text == "<"))
            continue; // class definition or template argument
        std::size_t j = i + 1;
        if (j < toks.size() &&
            (toks[j].text == "*" || toks[j].text == "&"))
            continue; // pointer/reference, not an owned stat
        // Walk the declarator list: name (, name)* up to ';'.
        while (j < toks.size() &&
               toks[j].kind == TokKind::Identifier) {
            const std::string &name = toks[j].text;
            if (j + 1 < toks.size() && toks[j + 1].text == "(")
                break; // function returning a stat type
            if (!registered.count(name))
                report(out, f, toks[j].line, "stat-registration",
                       t.text + " '" + name +
                           "' is never registered with a StatGroup "
                           "(register" + t.text +
                           ") -- it would be silently missing from "
                           "the stats export");
            if (j + 1 < toks.size() && toks[j + 1].text == "," &&
                j + 2 < toks.size() &&
                toks[j + 2].kind == TokKind::Identifier) {
                j += 2;
                continue;
            }
            break;
        }
    }
}

// ----------------------------------------------------------- no-wallclock

void
checkNoWallclock(const SourceFile &f, const Project &,
                 std::vector<Diagnostic> &out)
{
    if (!startsWith(f.relPath(), "src/"))
        return;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.inDirective || t.kind != TokKind::Identifier)
            continue;
        if (t.text == "chrono" || t.text == "random_device" ||
            t.text == "gettimeofday" || t.text == "clock_gettime" ||
            t.text == "timespec_get" || t.text == "mt19937" ||
            t.text == "mt19937_64") {
            report(out, f, t.line, "no-wallclock",
                   "'" + t.text +
                       "' breaks determinism -- simulated time comes "
                       "from EventQueue, randomness from "
                       "sim/random.hh");
            continue;
        }
        if (t.text == "time" || t.text == "rand" ||
            t.text == "srand" || t.text == "clock") {
            if (i + 1 >= toks.size() || toks[i + 1].text != "(")
                continue;
            bool member_call =
                i > 0 &&
                (toks[i - 1].text == "." || toks[i - 1].text == "->");
            bool non_std_qualified =
                i > 1 && toks[i - 1].text == "::" &&
                toks[i - 2].kind == TokKind::Identifier &&
                toks[i - 2].text != "std";
            // A preceding type token means this is a *declaration*
            // of a same-named function (e.g. `const ClockDomain
            // &clock() const`), not a call into libc.
            static const std::set<std::string> not_types = {
                "return", "co_return", "case", "else", "do",
                "throw", "co_yield", "new", "delete", "sizeof",
            };
            bool declaration =
                i > 0 &&
                ((toks[i - 1].kind == TokKind::Identifier &&
                  !not_types.count(toks[i - 1].text)) ||
                 toks[i - 1].text == "&" || toks[i - 1].text == "*");
            if (member_call || non_std_qualified || declaration)
                continue;
            report(out, f, t.line, "no-wallclock",
                   "call to '" + t.text +
                       "()' breaks determinism -- simulated time "
                       "comes from EventQueue, randomness from "
                       "sim/random.hh");
        }
    }
}

// ------------------------------------------------------ no-raw-owning-new

void
checkNoRawOwningNew(const SourceFile &f, const Project &proj,
                    std::vector<Diagnostic> &out)
{
    if (!inSrcOrBench(f))
        return;
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.inDirective || t.kind != TokKind::Identifier ||
            t.text != "new")
            continue;
        if (i > 0 && (toks[i - 1].text == "." ||
                      toks[i - 1].text == "->" ||
                      toks[i - 1].text == "::"))
            continue; // member/qualified name, not the operator
        int fb = f.enclosingFunction(i);
        if (fb >= 0) {
            const Block &blk =
                f.blocks()[static_cast<std::size_t>(fb)];
            bool is_ctor = !blk.className.empty() &&
                           blk.name == blk.className;
            if (is_ctor &&
                proj.derivesFrom(blk.className, "SimObject"))
                continue;
        }
        report(out, f, t.line, "no-raw-owning-new",
               "raw 'new' outside a SimObject factory constructor "
               "-- use std::make_unique or a container");
    }
}

// --------------------------------------------------------- header-hygiene

void
checkHeaderHygiene(const SourceFile &f, const Project &,
                   std::vector<Diagnostic> &out)
{
    if (!f.isHeader())
        return;
    const auto &toks = f.tokens();

    bool has_pragma_once = false;
    std::string ifndef_name;
    bool has_guard = false;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "#" || !toks[i].inDirective)
            continue;
        if (toks[i + 1].text == "pragma" &&
            toks[i + 2].text == "once")
            has_pragma_once = true;
        if (toks[i + 1].text == "ifndef" && ifndef_name.empty() &&
            toks[i + 2].kind == TokKind::Identifier)
            ifndef_name = toks[i + 2].text;
        if (toks[i + 1].text == "define" && !ifndef_name.empty() &&
            toks[i + 2].text == ifndef_name)
            has_guard = true;
    }
    if (!has_pragma_once && !has_guard)
        report(out, f, 1, "header-hygiene",
               "header has neither '#pragma once' nor a matching "
               "#ifndef/#define include guard");

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].inDirective &&
            toks[i].kind == TokKind::Identifier &&
            toks[i].text == "using" &&
            toks[i + 1].text == "namespace")
            report(out, f, toks[i].line, "header-hygiene",
                   "'using namespace' in a header leaks into every "
                   "includer");
    }
}

// ------------------------------------------------- hot-loop-dispatch

/**
 * Matching '>' of a template argument list whose '<' is at @p lt;
 * 0 when the list never closes (then this was a comparison, not a
 * template argument list).
 */
std::size_t
matchAngle(const std::vector<Token> &toks, std::size_t lt)
{
    int depth = 0;
    for (std::size_t i = lt; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0)
                return i;
        } else if (t == ";" || t == "{" || t == "}") {
            break;
        }
    }
    return 0;
}

/** Is toks[i..] the start of `std :: name` ? Returns index past it. */
std::size_t
matchStdName(const std::vector<Token> &toks, std::size_t i,
             const char *name)
{
    if (i + 2 < toks.size() && toks[i].text == "std" &&
        toks[i + 1].text == "::" && toks[i + 2].text == name)
        return i + 3;
    return 0;
}

/**
 * Dispatch declarations the project knows about: which names are
 * std::function-typed callables and which are unique_ptr members,
 * and which classes act as interfaces (someone derives from them).
 */
struct DispatchDecls
{
    std::set<std::string> functionTypes; ///< aliases of std::function
    std::set<std::string> functionVars;  ///< variables of those types
    std::map<std::string, std::string> uniquePtrVars; ///< name -> T
    std::set<std::string> interfaces; ///< classes with derived classes
};

DispatchDecls
collectDispatchDecls(const Project &proj)
{
    DispatchDecls d;
    // Pass 1: `using X = std::function<...>` aliases, class names.
    std::vector<std::string> classes;
    for (const auto &file : proj.files()) {
        const auto &toks = file->tokens();
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].text == "using" &&
                toks[i + 1].kind == TokKind::Identifier &&
                toks[i + 2].text == "=") {
                if (matchStdName(toks, i + 3, "function"))
                    d.functionTypes.insert(toks[i + 1].text);
            }
        }
        for (const Block &blk : file->blocks())
            if (blk.kind == Block::Kind::Type && !blk.name.empty())
                classes.push_back(blk.name);
    }
    // A class is an interface when any project class derives from
    // it (transitively) -- calls through a pointer to it dispatch
    // virtually in practice.
    for (const std::string &c : classes) {
        std::deque<std::string> work(proj.basesOf(c).begin(),
                                     proj.basesOf(c).end());
        while (!work.empty()) {
            std::string base = work.front();
            work.pop_front();
            if (!d.interfaces.insert(base).second)
                continue;
            for (const std::string &b : proj.basesOf(base))
                work.push_back(b);
        }
    }
    // Pass 2: variable/member declarations of the interesting types.
    for (const auto &file : proj.files()) {
        const auto &toks = file->tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].inDirective)
                continue;
            // `std::function<...> name` (members, locals, params).
            if (std::size_t after = matchStdName(toks, i, "function");
                after && after < toks.size() &&
                toks[after].text == "<") {
                std::size_t gt = matchAngle(toks, after);
                if (gt && gt + 1 < toks.size() &&
                    toks[gt + 1].kind == TokKind::Identifier)
                    d.functionVars.insert(toks[gt + 1].text);
                continue;
            }
            // `Alias name` where Alias names a std::function type.
            if (toks[i].kind == TokKind::Identifier &&
                d.functionTypes.count(toks[i].text) &&
                i + 1 < toks.size() &&
                toks[i + 1].kind == TokKind::Identifier)
                d.functionVars.insert(toks[i + 1].text);
            // `std::unique_ptr<T> name`.
            if (std::size_t after =
                    matchStdName(toks, i, "unique_ptr");
                after && after < toks.size() &&
                toks[after].text == "<" && after + 1 < toks.size() &&
                toks[after + 1].kind == TokKind::Identifier) {
                std::size_t gt = matchAngle(toks, after);
                if (gt && gt + 1 < toks.size() &&
                    toks[gt + 1].kind == TokKind::Identifier)
                    d.uniquePtrVars[toks[gt + 1].text] =
                        toks[after + 1].text;
            }
        }
    }
    return d;
}

/** Function blocks carrying the hot-loop annotation comment. */
std::vector<std::size_t>
hotLoopFunctions(const SourceFile &f)
{
    std::vector<std::size_t> hot;
    const auto &toks = f.tokens();
    for (const Comment &cm : f.comments()) {
        if (cm.text.find("htlint: hot-loop") == std::string::npos ||
            cm.text.find("hot-loop-dispatch") != std::string::npos)
            continue;
        // The annotation marks the next function defined after it:
        // the first Function block whose body opens at or below the
        // comment (the signature itself may span template and
        // return-type lines between the two).
        std::size_t best = 0;
        bool found = false;
        for (std::size_t b = 0; b < f.blocks().size(); ++b) {
            const Block &blk = f.blocks()[b];
            if (blk.kind != Block::Kind::Function)
                continue;
            if (toks[blk.open].line < cm.endLine)
                continue;
            if (!found || blk.open < f.blocks()[best].open) {
                best = b;
                found = true;
            }
        }
        if (found)
            hot.push_back(best);
    }
    return hot;
}

void
checkHotLoopDispatch(const Project &proj, std::vector<Diagnostic> &out)
{
    DispatchDecls decls = collectDispatchDecls(proj);
    for (const auto &file : proj.files()) {
        const SourceFile &f = *file;
        const auto &toks = f.tokens();
        for (std::size_t b : hotLoopFunctions(f)) {
            const Block &blk = f.blocks()[b];
            for (std::size_t i = blk.open + 1;
                 i < blk.close && i < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.inDirective || t.kind != TokKind::Identifier)
                    continue;
                // `callable(...)` through a std::function --
                // opaque indirect call per op.
                if (decls.functionVars.count(t.text) &&
                    i + 1 < toks.size() && toks[i + 1].text == "(" &&
                    (i == 0 || (toks[i - 1].text != "." &&
                                toks[i - 1].text != "->" &&
                                toks[i - 1].text != "::"))) {
                    report(out, f, t.line, "hot-loop-dispatch",
                           "call through std::function '" + t.text +
                               "' inside hot-loop function '" +
                               blk.name +
                               "' -- hoist the target out of the "
                               "loop or take the cold path "
                               "out-of-line");
                    continue;
                }
                // `ptr->method(...)` where ptr is a unique_ptr to a
                // class with derived classes: a virtual dispatch on
                // the per-instruction path.
                auto up = decls.uniquePtrVars.find(t.text);
                if (up != decls.uniquePtrVars.end() &&
                    decls.interfaces.count(up->second) &&
                    i + 3 < toks.size() && toks[i + 1].text == "->" &&
                    toks[i + 2].kind == TokKind::Identifier &&
                    toks[i + 3].text == "(") {
                    report(out, f, t.line, "hot-loop-dispatch",
                           "virtual call '" + t.text + "->" +
                               toks[i + 2].text +
                               "()' through unique_ptr<" +
                               up->second +
                               "> inside hot-loop function '" +
                               blk.name +
                               "' -- devirtualize: select the "
                               "concrete type once per run and "
                               "dispatch statically inside the "
                               "loop");
                }
            }
        }
    }
}

} // namespace

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> rules = {
        {"mediation-path",
         "every call path from a CS-side entry point to a "
         "PhysicalMemory access outside src/mem/ must pass an "
         "ownership-bitmap/range check (whole-program)",
         nullptr, &checkMediationPath},
        {"lockset",
         "fields annotated '// htlint: guarded-by(m)' may only be "
         "accessed where m is held -- lexically or proven through "
         "every caller's lockset (whole-program)",
         nullptr, &checkLockset},
        {"lock-order",
         "the global lock-acquisition-order graph (including "
         "acquisitions reached through calls) must be acyclic -- "
         "a cycle is a potential deadlock (whole-program)",
         nullptr, &checkLockOrder},
        {"atomic-sanity",
         "no split load/store read-modify-writes on std::atomic, "
         "no relaxed stores to readiness flags, no double-checked "
         "locking without acquire (whole-program)",
         nullptr, &checkAtomicSanity},
        {"shard-escape",
         "mutable state reachable from shard-executed code "
         "(ShardContext/runShardedBench roots) must be "
         "lock-guarded, atomic, or shard-owned (whole-program)",
         nullptr, &checkShardEscape},
        {"seed-flow",
         "every Random must be constructed from ShardContext/"
         "shardSeed/CLI-seed derived values (whole-program)",
         nullptr, &checkSeedFlow},
        {"secret-flow",
         "no enclave secret (device keys, KDF-derived keys, private "
         "page contents) may reach a trace/stats/log/stdout/mailbox/"
         "CS-memory sink unencrypted (whole-program)",
         nullptr, &checkSecretFlow},
        {"stat-registration",
         "every Scalar/Average/Distribution must be registered with "
         "a StatGroup so the JSON export sees it",
         &checkStatRegistration},
        {"no-wallclock",
         "no std::chrono / time() / rand() / std::random_device in "
         "src/ -- time comes from EventQueue, randomness from "
         "sim/random.hh",
         &checkNoWallclock},
        {"no-raw-owning-new",
         "no raw owning 'new' outside SimObject factory "
         "constructors",
         &checkNoRawOwningNew},
        {"header-hygiene",
         "headers need an include guard and must not contain "
         "'using namespace'",
         &checkHeaderHygiene},
        {"hot-loop-dispatch",
         "functions annotated '// htlint: hot-loop' must not call "
         "through std::function or virtually through a unique_ptr "
         "to an interface -- per-op indirect dispatch belongs "
         "outside the instruction path (whole-program)",
         nullptr, &checkHotLoopDispatch},
    };
    return rules;
}

} // namespace hypertee::htlint
