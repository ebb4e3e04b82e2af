#include "tools/htlint/taint.hh"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "tools/htlint/callgraph.hh"
#include "tools/htlint/index.hh"

namespace hypertee::htlint
{

namespace
{

/** A provenance chain: how the secret got here, oldest step first. */
using Prov = std::vector<FlowStep>;

/** Chains are for humans; past this depth extra hops add nothing. */
constexpr std::size_t maxFlowSteps = 12;

// ------------------------------------------------------------- policy

/**
 * Members/calls that *produce* secret bytes. Matched by name whether
 * spelled `km.memoryKey(...)`, `KeyManager::memoryKey`, or as the
 * bare `_sealedKey` field inside KeyManager itself.
 */
const std::set<std::string> &
sourceNames()
{
    static const std::set<std::string> names = {
        "sealedKey",        "endorsementSeed", "memoryKey",
        "sealingKey",       "reportKey",       "attestationKeySeed",
        "sharedMemoryKey",  "_sealedKey",      "_endorsementSeed",
    };
    return names;
}

/**
 * Crypto transforms whose *output* is public even when an input is
 * secret: ciphertext, MAC tags, signatures, digests, and public-key
 * derivation. Arguments inside a sanitizer call are absorbed -- the
 * secret legitimately enters the primitive and only a
 * computationally-safe value leaves it.
 *
 * configureKey() is a trusted *terminus* rather than a transform:
 * it hands the key to the modelled memory-encryption hardware,
 * which sits inside the TCB. Treating it as absorbing keeps the
 * engine object itself from being marked secret (everything in the
 * simulator eventually touches the fabric, so receiver taint there
 * would drown the analysis in noise).
 */
const std::set<std::string> &
sanitizerNames()
{
    static const std::set<std::string> names = {
        "hmacSha256",         "sha3_256",         "sha3Mac28",
        "digest",             "ed25519Sign",      "ed25519PublicKey",
        "ed25519Verify",      "x25519Base",       "ctrTransform",
        "ctEqual",            "signWithEk",       "signWithAk",
        "attestationPublicKey", "endorsementPublicKey",
        "configureKey",
    };
    return names;
}

/**
 * Helpers whose output stays *as secret as their inputs*: key
 * derivation (a derived key is still a key), DH shared-secret
 * computation, and plain re-encodings like toHex. These are the
 * opposite of sanitizers and must never launder taint.
 */
const std::set<std::string> &
preservingNames()
{
    static const std::set<std::string> names = {
        "hkdf", "hkdfExtract", "hkdfExpand", "x25519", "toHex",
    };
    return names;
}

/**
 * Members that reveal nothing about the bytes: a tainted receiver
 * may expose its size or be looked up in without leaking content.
 */
const std::set<std::string> &
neutralMembers()
{
    static const std::set<std::string> names = {
        "size", "empty", "length", "capacity", "count", "find",
    };
    return names;
}

/** Sink callee -> human-readable sink kind; nullptr when not a sink. */
const char *
sinkKind(const std::string &callee)
{
    static const std::map<std::string, const char *> sinks = {
        // TraceSink / HT_TRACE: the Chrome trace is host-visible.
        {"HT_TRACE_INSTANT", "trace"},
        {"HT_TRACE_INSTANT1", "trace"},
        {"span", "trace"},
        {"instant", "trace"},
        {"arg", "trace"},
        // src/sim/logging + stdio: straight to the host console.
        {"warn", "log"},
        {"inform", "log"},
        {"panic", "log"},
        {"fatal", "log"},
        {"panicIf", "log"},
        {"fatalIf", "log"},
        {"printf", "log"},
        {"fprintf", "log"},
        {"snprintf", "log"},
        {"puts", "log"},
        {"fputs", "log"},
        // Stats export: dumped to --stats-json.
        {"registerScalar", "stats-export"},
        {"registerAverage", "stats-export"},
        {"registerDistribution", "stats-export"},
        {"sample", "stats-export"},
        {"dumpJson", "stats-export"},
        // Untrusted-side mailbox / EmCall payload buffers.
        {"pushRequest", "mailbox"},
        {"pushResponse", "mailbox"},
        // CS-visible physical memory.
        {"writeCs", "cs-memory"},
    };
    auto it = sinks.find(callee);
    return it == sinks.end() ? nullptr : it->second;
}

bool
isKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if",     "else",   "for",    "while",  "switch", "case",
        "return", "do",     "new",    "delete", "sizeof", "const",
        "static", "auto",   "constexpr", "break", "continue",
        "throw",  "using",  "typename", "template", "goto",
    };
    return kw.count(s) > 0;
}

// -------------------------------------------------------- declassify

/** One parsed `// htlint: declassify(<reason>)` annotation. */
struct Declassify
{
    int commentLine = 0; ///< where the comment itself sits
    int coversLine = 0;  ///< statement line it declassifies
    std::string reason;
};

/**
 * Parse the declassify annotations of @p f. Same placement contract
 * as allow(): trailing a line covers that line, a comment on its own
 * line covers the next one.
 */
std::vector<Declassify>
parseDeclassify(const SourceFile &f)
{
    std::vector<Declassify> out;
    for (const Comment &c : f.comments()) {
        std::size_t tag = c.text.find("htlint:");
        if (tag == std::string::npos)
            continue;
        std::size_t d = c.text.find("declassify", tag);
        if (d == std::string::npos)
            continue;
        std::size_t open = c.text.find('(', d);
        if (open == std::string::npos)
            continue;
        std::size_t close = c.text.find(')', open);
        std::string reason =
            close == std::string::npos
                ? std::string()
                : c.text.substr(open + 1, close - open - 1);
        // Trim whitespace; an all-blank reason is no reason.
        std::size_t b = reason.find_first_not_of(" \t");
        std::size_t e = reason.find_last_not_of(" \t");
        reason = b == std::string::npos
                     ? std::string()
                     : reason.substr(b, e - b + 1);
        Declassify dc;
        dc.commentLine = c.line;
        dc.coversLine = c.ownLine ? c.endLine + 1 : c.line;
        dc.reason = reason;
        out.push_back(dc);
    }
    return out;
}

// ---------------------------------------------------------- analysis

class SecretFlowAnalysis
{
  public:
    SecretFlowAnalysis(const Project &proj,
                       std::vector<Diagnostic> &out)
        : _proj(proj), _idx(proj.index()), _cg(proj.callGraph()),
          _out(out)
    {
    }

    void run();

  private:
    /** Per-function summary: which params the return value taints,
     *  and whether it is secret regardless of arguments. */
    struct Summary
    {
        std::set<int> returnFromParams;
        bool returnConcrete = false;
        Prov returnProv;
    };

    // -- shared token utilities
    const std::vector<Token> &toksOf(int file_idx) const
    {
        return _proj.files()[static_cast<std::size_t>(file_idx)]
            ->tokens();
    }
    const SourceFile &fileOf(int file_idx) const
    {
        return *_proj.files()[static_cast<std::size_t>(file_idx)];
    }
    static std::size_t matchClose(const std::vector<Token> &toks,
                                  std::size_t open);
    std::vector<std::pair<std::size_t, std::size_t>>
    statementsOf(const FunctionDef &fn) const;
    static std::string lhsChain(const std::vector<Token> &toks,
                                std::size_t stmt_begin,
                                std::size_t lhs_end);

    bool declassified(int file_idx, int line,
                      bool require_reason = true) const;

    // -- phase A: symbolic param->return summaries
    void computeSummaries();
    std::set<int> scanSym(int fn_idx, int file_idx,
                          std::size_t begin, std::size_t end,
                          const std::map<std::string, std::set<int>>
                              &local) const;

    // -- phase B: concrete worklist propagation
    bool intraConcrete(int fn_idx);
    bool propagateCalls();
    std::optional<Prov> scanConc(int fn_idx, int file_idx,
                                 std::size_t begin,
                                 std::size_t end) const;
    std::optional<Prov> lookupTaint(int fn_idx,
                                    const std::string &name,
                                    bool prefix) const;
    void setTaint(int fn_idx, const std::string &chain,
                  const Prov &prov, int line, int file_idx,
                  bool &changed);

    // -- reporting
    void checkSinks();
    void checkStreamChains();
    void reportEmptyReasons();
    void emit(int file_idx, int line, const std::string &sink_label,
              const char *kind, Prov prov);

    static void append(Prov &prov, const std::string &file, int line,
                       std::string note);

    const Project &_proj;
    const ProjectIndex &_idx;
    const CallGraph &_cg;
    std::vector<Diagnostic> &_out;

    std::vector<Summary> _sums;
    /** Per function: tainted name (or dotted chain) -> provenance. */
    std::vector<std::map<std::string, Prov>> _fnTaint;
    /** Class fields (matched by name project-wide, `_`-prefixed). */
    std::map<std::string, Prov> _fieldTaint;
    /** (fileIdx, calleeTokenIdx) -> CallSite index. */
    std::map<std::pair<int, std::size_t>, int> _siteAt;
    /** Per function: its call sites, in token order. */
    std::vector<std::vector<int>> _callsOfFn;
    /** Per file: parsed declassify annotations. */
    std::vector<std::vector<Declassify>> _declass;
};

void
SecretFlowAnalysis::append(Prov &prov, const std::string &file,
                           int line, std::string note)
{
    if (prov.size() >= maxFlowSteps)
        return;
    FlowStep s;
    s.file = file;
    s.line = line;
    s.note = std::move(note);
    prov.push_back(std::move(s));
}

std::size_t
SecretFlowAnalysis::matchClose(const std::vector<Token> &toks,
                               std::size_t open)
{
    const bool paren = toks[open].text == "(";
    const std::string close = paren ? ")" : "}";
    const int depth = paren ? toks[open].parenDepth
                            : toks[open].braceDepth;
    std::size_t k = open + 1;
    while (k < toks.size() &&
           !(toks[k].text == close &&
             (paren ? toks[k].parenDepth : toks[k].braceDepth) ==
                 depth))
        ++k;
    return k;
}

/**
 * Split a function body into top-level statements: `;` at the body's
 * paren depth ends one, `{`/`}` are boundaries too (so nested block
 * contents become their own statements and for-headers stay whole).
 */
std::vector<std::pair<std::size_t, std::size_t>>
SecretFlowAnalysis::statementsOf(const FunctionDef &fn) const
{
    const auto &toks = toksOf(fn.fileIdx);
    const int p0 = toks[fn.open].parenDepth;
    std::vector<std::pair<std::size_t, std::size_t>> stmts;
    std::size_t s = fn.open + 1;
    for (std::size_t k = fn.open + 1;
         k < fn.close && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.inDirective)
            continue;
        const bool boundary =
            (t.text == ";" && t.parenDepth == p0) ||
            t.text == "{" || t.text == "}";
        if (!boundary)
            continue;
        if (k > s)
            stmts.emplace_back(s, k);
        s = k + 1;
    }
    if (fn.close > s)
        stmts.emplace_back(s, fn.close);
    return stmts;
}

/**
 * Normalize the assignment target ending just before @p lhs_end into
 * a dotted chain: `enc.keyId` -> "enc.keyId", `this->_f` -> "_f",
 * `buf[i]` -> "buf". Empty when no identifier is found.
 */
std::string
SecretFlowAnalysis::lhsChain(const std::vector<Token> &toks,
                             std::size_t stmt_begin,
                             std::size_t lhs_end)
{
    std::vector<std::string> parts;
    std::size_t p = lhs_end;
    while (p > stmt_begin) {
        --p;
        if (toks[p].text == "]") {
            int depth = 1; // subscripts don't change the base object
            while (p > stmt_begin && depth > 0) {
                --p;
                if (toks[p].text == "]")
                    ++depth;
                else if (toks[p].text == "[")
                    --depth;
            }
            continue;
        }
        if (toks[p].kind == TokKind::Identifier) {
            parts.push_back(toks[p].text);
            if (p > stmt_begin && (toks[p - 1].text == "." ||
                                   toks[p - 1].text == "->")) {
                --p; // keep walking the member chain
                continue;
            }
            break;
        }
        break; // operator or paren: chain ends
    }
    std::reverse(parts.begin(), parts.end());
    if (!parts.empty() && parts.front() == "this")
        parts.erase(parts.begin());
    std::string chain;
    for (const std::string &part : parts) {
        if (!chain.empty())
            chain += ".";
        chain += part;
    }
    return chain;
}

bool
SecretFlowAnalysis::declassified(int file_idx, int line,
                                 bool require_reason) const
{
    for (const Declassify &d :
         _declass[static_cast<std::size_t>(file_idx)]) {
        if (d.coversLine != line && d.commentLine != line)
            continue;
        if (!require_reason || !d.reason.empty())
            return true;
    }
    return false;
}

// ------------------------------------------------- phase A: summaries

std::set<int>
SecretFlowAnalysis::scanSym(
    int fn_idx, int file_idx, std::size_t begin, std::size_t end,
    const std::map<std::string, std::set<int>> &local) const
{
    (void)fn_idx;
    const auto &toks = toksOf(file_idx);
    std::set<int> deps;
    for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.inDirective || t.kind != TokKind::Identifier)
            continue;
        const bool hasNext = k + 1 < toks.size();
        // Sanitizer call (plain or as a member): absorb arguments.
        if (hasNext && toks[k + 1].text == "(" &&
            sanitizerNames().count(t.text)) {
            k = matchClose(toks, k + 1);
            continue;
        }
        if (isKeyword(t.text))
            continue;
        // Receiver whose member reveals nothing: skip the pair.
        if (hasNext && (toks[k + 1].text == "." ||
                        toks[k + 1].text == "->") &&
            k + 2 < toks.size() &&
            neutralMembers().count(toks[k + 2].text)) {
            k += 2;
            continue;
        }
        auto it = local.find(t.text);
        if (it != local.end())
            deps.insert(it->second.begin(), it->second.end());
        // Dotted chains recorded by assignments.
        if (hasNext && (toks[k + 1].text == "." ||
                        toks[k + 1].text == "->")) {
            auto lo = local.lower_bound(t.text + ".");
            if (lo != local.end() &&
                lo->first.compare(0, t.text.size() + 1,
                                  t.text + ".") == 0)
                deps.insert(lo->second.begin(), lo->second.end());
        }
    }
    return deps;
}

void
SecretFlowAnalysis::computeSummaries()
{
    const auto &fns = _idx.functions();
    _sums.assign(fns.size(), Summary{});
    for (int round = 0; round < 8; ++round) {
        bool changed = false;
        for (std::size_t fi = 0; fi < fns.size(); ++fi) {
            const FunctionDef &fn = fns[fi];
            const auto &toks = toksOf(fn.fileIdx);
            std::map<std::string, std::set<int>> local;
            for (std::size_t p = 0; p < fn.params.size(); ++p)
                if (!fn.params[p].empty())
                    local[fn.params[p]] = {static_cast<int>(p)};
            auto stmts = statementsOf(fn);
            for (int pass = 0; pass < 4; ++pass) {
                bool moved = false;
                for (const auto &[s, e] : stmts) {
                    if (s >= e)
                        continue;
                    // `return expr;` -- possibly after `if (...)`.
                    for (std::size_t r = s; r < e; ++r) {
                        if (toks[r].text != "return" ||
                            toks[r].parenDepth !=
                                toks[fn.open].parenDepth)
                            continue;
                        std::set<int> deps = scanSym(
                            static_cast<int>(fi), fn.fileIdx, r + 1,
                            e, local);
                        for (int d : deps)
                            changed |=
                                _sums[fi]
                                    .returnFromParams.insert(d)
                                    .second;
                        break;
                    }
                    if (toks[s].text == "return")
                        continue;
                    // Declaration with ctor args: `Type name(...)`.
                    std::size_t j = s;
                    while (j < e && isKeyword(toks[j].text) &&
                           toks[j].text != "return")
                        ++j;
                    if (j + 2 < e &&
                        toks[j].kind == TokKind::Identifier &&
                        toks[j + 1].kind == TokKind::Identifier &&
                        !isKeyword(toks[j].text) &&
                        !isKeyword(toks[j + 1].text) &&
                        (toks[j + 2].text == "(" ||
                         toks[j + 2].text == "{")) {
                        std::size_t close =
                            matchClose(toks, j + 2);
                        std::set<int> deps = scanSym(
                            static_cast<int>(fi), fn.fileIdx, j + 3,
                            close, local);
                        auto &slot = local[toks[j + 1].text];
                        for (int d : deps)
                            moved |= slot.insert(d).second;
                    }
                    // Assignments (plain and compound).
                    const int p0 = toks[fn.open].parenDepth;
                    for (std::size_t a = s; a < e; ++a) {
                        if (toks[a].text != "=" ||
                            toks[a].parenDepth != p0)
                            continue;
                        if (a + 1 < e && toks[a + 1].text == "=")
                            continue;
                        if (a > s) {
                            const std::string &prev =
                                toks[a - 1].text;
                            if (prev == "=" || prev == "<" ||
                                prev == ">" || prev == "!")
                                continue;
                        }
                        std::size_t lhs_end = a;
                        if (a > s && toks[a - 1].kind ==
                                         TokKind::Punct &&
                            std::string("+-*/|&^%").find(
                                toks[a - 1].text) !=
                                std::string::npos)
                            lhs_end = a - 1;
                        std::string chain =
                            lhsChain(toks, s, lhs_end);
                        if (chain.empty())
                            continue;
                        std::set<int> deps = scanSym(
                            static_cast<int>(fi), fn.fileIdx, a + 1,
                            e, local);
                        auto &slot = local[chain];
                        for (int d : deps)
                            moved |= slot.insert(d).second;
                    }
                }
                if (!moved)
                    break;
            }
        }
        if (!changed)
            break;
    }
}

// --------------------------------------------- phase B: concrete taint

std::optional<Prov>
SecretFlowAnalysis::lookupTaint(int fn_idx, const std::string &name,
                                bool prefix) const
{
    if (fn_idx >= 0) {
        const auto &local =
            _fnTaint[static_cast<std::size_t>(fn_idx)];
        auto it = local.find(name);
        if (it != local.end())
            return it->second;
        if (prefix) {
            auto lo = local.lower_bound(name + ".");
            if (lo != local.end() &&
                lo->first.compare(0, name.size() + 1, name + ".") ==
                    0)
                return lo->second;
        }
    }
    if (!name.empty() && name[0] == '_') {
        auto it = _fieldTaint.find(name);
        if (it != _fieldTaint.end())
            return it->second;
    }
    return std::nullopt;
}

/**
 * Is [begin, end) a top-level equality comparison? Its value is a
 * single bool, not secret content (mismatch *position* leaks are
 * what ctEqual is for), so `panicIf(it == _keys.end(), ...)` and
 * friends stay clean.
 */
bool
isBooleanComparison(const std::vector<Token> &toks,
                    std::size_t begin, std::size_t end)
{
    int base = -1;
    for (std::size_t k = begin; k < end && k < toks.size(); ++k)
        if (!toks[k].inDirective &&
            (base < 0 || toks[k].parenDepth < base))
            base = toks[k].parenDepth;
    for (std::size_t k = begin; k + 1 < end && k + 1 < toks.size();
         ++k) {
        if (toks[k].inDirective || toks[k].parenDepth != base)
            continue;
        if (toks[k + 1].text != "=")
            continue;
        if (toks[k].text == "=" || toks[k].text == "!")
            return true; // `a == b` / `a != b` (lexed as = = / ! =)
    }
    return false;
}

std::optional<Prov>
SecretFlowAnalysis::scanConc(int fn_idx, int file_idx,
                             std::size_t begin,
                             std::size_t end) const
{
    const auto &toks = toksOf(file_idx);
    const SourceFile &f = fileOf(file_idx);
    if (isBooleanComparison(toks, begin, end))
        return std::nullopt;
    for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.inDirective || t.kind != TokKind::Identifier)
            continue;
        if (declassified(file_idx, t.line))
            continue;
        const bool hasNext = k + 1 < toks.size();
        const std::string next = hasNext ? toks[k + 1].text : "";
        const bool prevSep =
            k > 0 && (toks[k - 1].text == "." ||
                      toks[k - 1].text == "->" ||
                      toks[k - 1].text == "::");

        if (next == "(") {
            // ---- call expression
            if (sanitizerNames().count(t.text)) {
                k = matchClose(toks, k + 1); // output is public
                continue;
            }
            if (sourceNames().count(t.text)) {
                Prov p;
                append(p, f.relPath(), t.line,
                       "secret source '" + t.text + "'");
                return p;
            }
            // Enclave-private page contents: reads through the
            // mediated EMS port (`_port->readCs`). The CS-side
            // IHub::readCs only ever returns bitmap-checked
            // non-enclave pages, so plain readCs stays clean.
            if (t.text == "readCs" && k >= 2 &&
                toks[k - 1].text == "->" &&
                toks[k - 2].text == "_port") {
                Prov p;
                append(p, f.relPath(), t.line,
                       "secret source 'enclave page contents via "
                       "_port->readCs'");
                return p;
            }
            auto site = _siteAt.find({file_idx, k});
            const bool preserving =
                preservingNames().count(t.text) > 0;
            std::vector<
                std::pair<std::size_t, std::size_t>> const *args =
                nullptr;
            if (site != _siteAt.end())
                args = &_idx.calls()[static_cast<std::size_t>(
                                         site->second)]
                            .args;
            if (preserving && args) {
                for (const auto &[ab, ae] : *args) {
                    auto p = scanConc(fn_idx, file_idx, ab, ae);
                    if (p) {
                        append(*p, f.relPath(), t.line,
                               "stays secret through '" + t.text +
                                   "'");
                        return p;
                    }
                }
                k = matchClose(toks, k + 1);
                continue;
            }
            if (site != _siteAt.end()) {
                const auto &callees =
                    _cg.calleesOf(site->second);
                if (!callees.empty()) {
                    for (int c : callees) {
                        const Summary &sum =
                            _sums[static_cast<std::size_t>(c)];
                        if (sum.returnConcrete) {
                            Prov p = sum.returnProv;
                            append(p, f.relPath(), t.line,
                                   "returned by '" + t.text + "'");
                            return p;
                        }
                        for (int pi : sum.returnFromParams) {
                            if (pi < 0 ||
                                pi >= static_cast<int>(
                                          args->size()))
                                continue;
                            const auto &[ab, ae] =
                                (*args)[static_cast<std::size_t>(
                                    pi)];
                            auto p = scanConc(fn_idx, file_idx, ab,
                                              ae);
                            if (p) {
                                append(*p, f.relPath(), t.line,
                                       "flows through '" + t.text +
                                           "' return");
                                return p;
                            }
                        }
                    }
                    // All callees known: the summaries are the
                    // whole story, don't re-scan atoms inline.
                    k = matchClose(toks, k + 1);
                    continue;
                }
            }
            // Unknown callee (std::, macros): fall through and scan
            // the argument atoms inline -- it may return its input.
            continue;
        }

        if (next == "." || next == "->") {
            // ---- receiver position
            const std::string member =
                k + 2 < toks.size() &&
                        toks[k + 2].kind == TokKind::Identifier
                    ? toks[k + 2].text
                    : "";
            // `x.sanitizer(...)`: public output, absorb the call.
            if (!member.empty() && k + 3 < toks.size() &&
                toks[k + 3].text == "(" &&
                sanitizerNames().count(member)) {
                k = matchClose(toks, k + 3);
                continue;
            }
            if (!member.empty()) {
                auto composite = lookupTaint(
                    fn_idx, t.text + "." + member, false);
                if (composite) {
                    Prov p = *composite;
                    append(p, f.relPath(), t.line,
                           "reads tainted '" + t.text + "." +
                               member + "'");
                    return p;
                }
            }
            auto recv = lookupTaint(fn_idx, t.text, false);
            if (recv) {
                if (neutralMembers().count(member)) {
                    k += 2; // size()/find(): reveals nothing
                    continue;
                }
                Prov p = *recv;
                append(p, f.relPath(), t.line,
                       "member of tainted '" + t.text + "'");
                return p;
            }
            continue; // member token gets its own source check
        }

        if (next == "::")
            continue; // qualifier

        // ---- plain atom
        if (isKeyword(t.text))
            continue;
        if (sourceNames().count(t.text) &&
            (prevSep || t.text[0] == '_')) {
            Prov p;
            append(p, f.relPath(), t.line,
                   "secret source '" + t.text + "'");
            return p;
        }
        auto hit = lookupTaint(fn_idx, t.text, /*prefix=*/true);
        if (hit) {
            Prov p = *hit;
            append(p, f.relPath(), t.line,
                   "tainted '" + t.text + "'");
            return p;
        }
    }
    return std::nullopt;
}

void
SecretFlowAnalysis::setTaint(int fn_idx, const std::string &chain,
                             const Prov &prov, int line,
                             int file_idx, bool &changed)
{
    Prov noted = prov;
    append(noted, fileOf(file_idx).relPath(), line,
           "assigned to '" + chain + "'");
    if (fn_idx >= 0) {
        auto &local = _fnTaint[static_cast<std::size_t>(fn_idx)];
        if (!local.count(chain)) {
            local[chain] = noted;
            changed = true;
        }
    }
    // `_`-prefixed bases are (almost always) class fields; track
    // them project-wide so sibling methods see the taint.
    std::string base = chain.substr(0, chain.find('.'));
    if (!base.empty() && base[0] == '_' &&
        !_fieldTaint.count(base)) {
        _fieldTaint[base] = noted;
        changed = true;
    }
}

bool
SecretFlowAnalysis::intraConcrete(int fn_idx)
{
    const FunctionDef &fn =
        _idx.functions()[static_cast<std::size_t>(fn_idx)];
    const auto &toks = toksOf(fn.fileIdx);
    bool changed = false;
    auto stmts = statementsOf(fn);
    for (int pass = 0; pass < 6; ++pass) {
        bool moved = false;
        for (const auto &[s, e] : stmts) {
            if (s >= e)
                continue;
            if (declassified(fn.fileIdx, toks[s].line))
                continue; // annotated public at this point
            // `return expr;` -- possibly after `if (...)`.
            for (std::size_t r = s; r < e; ++r) {
                if (toks[r].text != "return" ||
                    toks[r].parenDepth != toks[fn.open].parenDepth)
                    continue;
                auto p = scanConc(fn_idx, fn.fileIdx, r + 1, e);
                if (p && !_sums[static_cast<std::size_t>(fn_idx)]
                              .returnConcrete) {
                    auto &sum =
                        _sums[static_cast<std::size_t>(fn_idx)];
                    sum.returnConcrete = true;
                    sum.returnProv = *p;
                    append(sum.returnProv,
                           fileOf(fn.fileIdx).relPath(),
                           toks[r].line,
                           "returned from '" + fn.name + "'");
                    changed = true;
                }
                break;
            }
            if (toks[s].text == "return")
                continue;
            // Declaration with ctor args: `Type name(...)` / `{...}`.
            std::size_t j = s;
            while (j < e && isKeyword(toks[j].text) &&
                   toks[j].text != "return")
                ++j;
            if (j + 2 < e && toks[j].kind == TokKind::Identifier &&
                toks[j + 1].kind == TokKind::Identifier &&
                !isKeyword(toks[j].text) &&
                !isKeyword(toks[j + 1].text) &&
                (toks[j + 2].text == "(" ||
                 toks[j + 2].text == "{")) {
                std::size_t close = matchClose(toks, j + 2);
                auto p =
                    scanConc(fn_idx, fn.fileIdx, j + 3, close);
                if (p)
                    setTaint(fn_idx, toks[j + 1].text, *p,
                             toks[j + 1].line, fn.fileIdx, moved);
            }
            // Assignments.
            const int p0 = toks[fn.open].parenDepth;
            for (std::size_t a = s; a < e; ++a) {
                if (toks[a].text != "=" ||
                    toks[a].parenDepth != p0)
                    continue;
                if (a + 1 < e && toks[a + 1].text == "=")
                    continue;
                if (a > s) {
                    const std::string &prev = toks[a - 1].text;
                    if (prev == "=" || prev == "<" ||
                        prev == ">" || prev == "!")
                        continue;
                }
                std::size_t lhs_end = a;
                if (a > s && toks[a - 1].kind == TokKind::Punct &&
                    std::string("+-*/|&^%").find(
                        toks[a - 1].text) != std::string::npos)
                    lhs_end = a - 1;
                std::string chain = lhsChain(toks, s, lhs_end);
                if (chain.empty())
                    continue;
                auto p = scanConc(fn_idx, fn.fileIdx, a + 1, e);
                if (p)
                    setTaint(fn_idx, chain, *p, toks[a].line,
                             fn.fileIdx, moved);
            }
        }
        changed |= moved;
        if (!moved)
            break;
    }
    // Receiver mutation: `recv.append(secret)` makes recv secret.
    for (int ci : _callsOfFn[static_cast<std::size_t>(fn_idx)]) {
        const CallSite &site =
            _idx.calls()[static_cast<std::size_t>(ci)];
        if (site.receiver.empty() || site.qualified)
            continue;
        if (sanitizerNames().count(site.callee) ||
            neutralMembers().count(site.callee))
            continue;
        if (declassified(site.fileIdx, site.line))
            continue;
        for (const auto &[ab, ae] : site.args) {
            auto p = scanConc(fn_idx, site.fileIdx, ab, ae);
            if (!p)
                continue;
            append(*p, fileOf(site.fileIdx).relPath(), site.line,
                   "written into '" + site.receiver + "' via '" +
                       site.callee + "'");
            bool moved = false;
            setTaint(fn_idx, site.receiver, *p, site.line,
                     site.fileIdx, moved);
            changed |= moved;
            break;
        }
    }
    return changed;
}

bool
SecretFlowAnalysis::propagateCalls()
{
    bool changed = false;
    const auto &calls = _idx.calls();
    for (std::size_t ci = 0; ci < calls.size(); ++ci) {
        const CallSite &site = calls[ci];
        if (sanitizerNames().count(site.callee))
            continue; // trust boundary: crypto eats the secret
        if (declassified(site.fileIdx, site.line))
            continue;
        const auto &callees =
            _cg.calleesOf(static_cast<int>(ci));
        if (callees.empty())
            continue;
        for (std::size_t argi = 0; argi < site.args.size();
             ++argi) {
            auto p = scanConc(site.callerFn, site.fileIdx,
                              site.args[argi].first,
                              site.args[argi].second);
            if (!p)
                continue;
            for (int c : callees) {
                const FunctionDef &callee =
                    _idx.functions()[static_cast<std::size_t>(c)];
                if (argi >= callee.params.size() ||
                    callee.params[argi].empty())
                    continue;
                auto &local =
                    _fnTaint[static_cast<std::size_t>(c)];
                if (local.count(callee.params[argi]))
                    continue;
                Prov noted = *p;
                append(noted, fileOf(site.fileIdx).relPath(),
                       site.line,
                       "passed to '" + site.callee + "(" +
                           callee.params[argi] + ")'");
                local[callee.params[argi]] = std::move(noted);
                changed = true;
            }
        }
    }
    return changed;
}

// ---------------------------------------------------------- reporting

void
SecretFlowAnalysis::emit(int file_idx, int line,
                         const std::string &sink_label,
                         const char *kind, Prov prov)
{
    const SourceFile &f = fileOf(file_idx);
    append(prov, f.relPath(), line,
           "sink '" + sink_label + "' (" + kind + ")");
    std::string path;
    for (const FlowStep &s : prov) {
        if (!path.empty())
            path += " -> ";
        path += s.note;
    }
    Diagnostic d;
    d.file = f.relPath();
    d.line = line;
    d.rule = "secret-flow";
    d.message = "enclave secret reaches " + std::string(kind) +
                " sink '" + sink_label + "' [" + path +
                "] -- encrypt/MAC/hash it first, or annotate "
                "'// htlint: declassify(<reason>)'";
    d.flow = std::move(prov);
    _out.push_back(std::move(d));
}

void
SecretFlowAnalysis::checkSinks()
{
    const auto &calls = _idx.calls();
    for (std::size_t ci = 0; ci < calls.size(); ++ci) {
        const CallSite &site = calls[ci];
        const char *kind = sinkKind(site.callee);
        if (!kind)
            continue;
        if (declassified(site.fileIdx, site.line))
            continue;
        for (const auto &[ab, ae] : site.args) {
            auto p = scanConc(site.callerFn, site.fileIdx, ab, ae);
            if (!p)
                continue;
            emit(site.fileIdx, site.line, site.callee, kind,
                 std::move(*p));
            break; // one finding per call site
        }
    }
}

void
SecretFlowAnalysis::checkStreamChains()
{
    const auto &files = _proj.files();
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const auto &toks = files[fi]->tokens();
        for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
            const Token &t = toks[k];
            if (t.inDirective || t.kind != TokKind::Identifier)
                continue;
            if (t.text != "cout" && t.text != "cerr" &&
                t.text != "clog")
                continue;
            if (toks[k + 1].text != "<" || toks[k + 2].text != "<")
                continue;
            if (declassified(static_cast<int>(fi), t.line))
                continue;
            // The chain runs to the statement's `;`.
            std::size_t e = k + 3;
            while (e < toks.size() &&
                   !(toks[e].text == ";" &&
                     toks[e].parenDepth == t.parenDepth))
                ++e;
            int fn = _idx.functionAt(static_cast<int>(fi), k);
            auto p =
                scanConc(fn, static_cast<int>(fi), k + 3, e);
            if (p)
                emit(static_cast<int>(fi), t.line,
                     "std::" + t.text, "stdout/stderr",
                     std::move(*p));
            k = e;
        }
    }
}

void
SecretFlowAnalysis::reportEmptyReasons()
{
    const auto &files = _proj.files();
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        for (const Declassify &d : _declass[fi]) {
            if (!d.reason.empty())
                continue;
            Diagnostic diag;
            diag.file = files[fi]->relPath();
            diag.line = d.commentLine;
            diag.rule = "secret-flow";
            diag.message =
                "declassify() requires a non-empty reason -- state "
                "*why* this value is safe to reveal, e.g. "
                "'// htlint: declassify(MAC tag is public)'";
            _out.push_back(std::move(diag));
        }
    }
}

void
SecretFlowAnalysis::run()
{
    const auto &files = _proj.files();
    _declass.resize(files.size());
    for (std::size_t fi = 0; fi < files.size(); ++fi)
        _declass[fi] = parseDeclassify(*files[fi]);

    const auto &calls = _idx.calls();
    _callsOfFn.assign(_idx.functions().size(), {});
    for (std::size_t ci = 0; ci < calls.size(); ++ci) {
        _siteAt[{calls[ci].fileIdx, calls[ci].tokenIdx}] =
            static_cast<int>(ci);
        if (calls[ci].callerFn >= 0)
            _callsOfFn[static_cast<std::size_t>(
                           calls[ci].callerFn)]
                .push_back(static_cast<int>(ci));
    }

    computeSummaries();

    _fnTaint.assign(_idx.functions().size(), {});
    for (int round = 0; round < 16; ++round) {
        bool changed = false;
        for (std::size_t fi = 0; fi < _idx.functions().size();
             ++fi)
            changed |= intraConcrete(static_cast<int>(fi));
        changed |= propagateCalls();
        if (!changed)
            break;
    }

    checkSinks();
    checkStreamChains();
    reportEmptyReasons();
}

} // namespace

void
checkSecretFlow(const Project &proj, std::vector<Diagnostic> &out)
{
    SecretFlowAnalysis(proj, out).run();
}

} // namespace hypertee::htlint
