#include "tools/htlint/locks.hh"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "tools/htlint/callgraph.hh"
#include "tools/htlint/index.hh"

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
inSrcOrBench(const std::string &rel)
{
    return startsWith(rel, "src/") || startsWith(rel, "bench/");
}

std::string
toLower(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

// ----------------------------------------------------------- LockModel

/** One mutex acquisition and the token range it is held over. */
struct Acquisition
{
    std::size_t tokenIdx = 0; ///< token of the acquiring construct
    int line = 0;
    /** Unqualified mutex names (last member-access component). */
    std::vector<std::string> mutexes;
    std::size_t holdEnd = 0; ///< first token past the held range
    /** Several mutexes taken atomically (scoped_lock(a, b)): the
     *  acquisition itself is deadlock-avoiding, so no ordering edge
     *  exists *between* its own mutexes. */
    bool multi = false;
};

bool
isRaiiGuard(const std::string &s)
{
    return s == "lock_guard" || s == "scoped_lock" ||
           s == "unique_lock" || s == "shared_lock";
}

/** std::defer_lock / adopt_lock / try_to_lock tag arguments. */
bool
isLockTag(const std::string &s)
{
    return s == "defer_lock" || s == "adopt_lock" ||
           s == "try_to_lock";
}

/**
 * Per-function mutex acquisitions, shared by every rule in this
 * file. Indexed by FunctionDef index.
 */
class LockModel
{
  public:
    explicit LockModel(const Project &proj) : _proj(proj)
    {
        const auto &fns = proj.index().functions();
        _acq.resize(fns.size());
        for (std::size_t i = 0; i < fns.size(); ++i)
            collect(fns[i], _acq[i]);
    }

    const std::vector<Acquisition> &acquisitionsOf(int fn) const
    {
        return _acq[static_cast<std::size_t>(fn)];
    }

    /** Is @p mutex lexically held at token @p tok of function @p fn? */
    bool
    holds(int fn, std::size_t tok, const std::string &mutex) const
    {
        for (const Acquisition &a : acquisitionsOf(fn))
            if (a.tokenIdx < tok && tok < a.holdEnd &&
                std::find(a.mutexes.begin(), a.mutexes.end(),
                          mutex) != a.mutexes.end())
                return true;
        return false;
    }

    /** Is *any* mutex lexically held at token @p tok of @p fn? */
    bool
    holdsAny(int fn, std::size_t tok) const
    {
        for (const Acquisition &a : acquisitionsOf(fn))
            if (a.tokenIdx < tok && tok < a.holdEnd &&
                !a.mutexes.empty())
                return true;
        return false;
    }

  private:
    void
    collect(const FunctionDef &fn, std::vector<Acquisition> &out)
    {
        const SourceFile &f =
            *_proj.files()[static_cast<std::size_t>(fn.fileIdx)];
        const auto &toks = f.tokens();
        for (std::size_t k = fn.open + 1;
             k < fn.close && k < toks.size(); ++k) {
            const Token &t = toks[k];
            if (t.inDirective || t.kind != TokKind::Identifier)
                continue;
            if (isRaiiGuard(t.text))
                collectRaii(f, fn, k, out);
            else if (k + 3 < toks.size() &&
                     (toks[k + 1].text == "." ||
                      toks[k + 1].text == "->") &&
                     toks[k + 2].text == "lock" &&
                     toks[k + 3].text == "(")
                collectDirect(f, fn, k, out);
        }
    }

    /** `std::lock_guard<std::mutex> g(_mutex);` and friends. */
    void
    collectRaii(const SourceFile &f, const FunctionDef &fn,
                std::size_t k, std::vector<Acquisition> &out)
    {
        const auto &toks = f.tokens();
        std::size_t j = k + 1;
        if (j < toks.size() && toks[j].text == "<") {
            int depth = 1;
            for (++j; j < toks.size() && depth > 0; ++j) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">")
                    --depth;
            }
        }
        // Variable name, then the parenthesized/braced mutex list.
        if (j >= toks.size() ||
            toks[j].kind != TokKind::Identifier)
            return;
        std::size_t open = j + 1;
        if (open >= toks.size() || (toks[open].text != "(" &&
                                    toks[open].text != "{"))
            return;
        const std::string close = toks[open].text == "(" ? ")" : "}";
        const std::string opener = toks[open].text;

        Acquisition acq;
        acq.tokenIdx = k;
        acq.line = toks[k].line;
        int b = f.enclosingBlock(k);
        acq.holdEnd =
            b < 0 ? toks.size()
                  : f.blocks()[static_cast<std::size_t>(b)].close;

        // Split the arguments on top-level commas; the mutex name of
        // each argument is its last identifier (`other._mutex` ->
        // `_mutex`).
        int depth = 0;
        std::string last;
        bool deferred = false;
        auto flush = [&]() {
            if (last.empty())
                return;
            if (isLockTag(last))
                deferred |= last == "defer_lock";
            else
                acq.mutexes.push_back(last);
            last.clear();
        };
        for (std::size_t m = open; m < toks.size(); ++m) {
            const std::string &s = toks[m].text;
            if (s == opener || s == "(" || s == "{" || s == "[") {
                ++depth;
            } else if (s == close || s == ")" || s == "}" ||
                       s == "]") {
                if (--depth == 0) {
                    flush();
                    break;
                }
            } else if (s == "," && depth == 1) {
                flush();
            } else if (toks[m].kind == TokKind::Identifier) {
                last = s;
            }
        }
        if (deferred || acq.mutexes.empty())
            return; // std::defer_lock: nothing held yet
        acq.multi = acq.mutexes.size() > 1;
        (void)fn;
        out.push_back(std::move(acq));
    }

    /** `_mutex.lock()` ... `_mutex.unlock()` (or to function end). */
    void
    collectDirect(const SourceFile &f, const FunctionDef &fn,
                  std::size_t k, std::vector<Acquisition> &out)
    {
        const auto &toks = f.tokens();
        Acquisition acq;
        acq.tokenIdx = k;
        acq.line = toks[k].line;
        acq.mutexes.push_back(toks[k].text);
        acq.holdEnd = fn.close;
        for (std::size_t m = k + 4;
             m + 3 < toks.size() && m < fn.close; ++m) {
            if (toks[m].kind == TokKind::Identifier &&
                toks[m].text == toks[k].text &&
                (toks[m + 1].text == "." ||
                 toks[m + 1].text == "->") &&
                toks[m + 2].text == "unlock" &&
                toks[m + 3].text == "(") {
                acq.holdEnd = m;
                break;
            }
        }
        out.push_back(std::move(acq));
    }

    const Project &_proj;
    std::vector<std::vector<Acquisition>> _acq;
};

std::string
fnLabel(const FunctionDef &fn)
{
    return fn.className.empty() ? fn.name
                                : fn.className + "::" + fn.name;
}

/** Keywords that look like a declaration's type but are not. */
bool
isStatementKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "return",   "else",     "do",        "break",
        "continue", "case",     "goto",      "new",
        "delete",   "throw",    "co_return", "co_await",
        "co_yield", "sizeof",   "typedef",   "using",
        "namespace","struct",   "class",     "enum",
        "public",   "private",  "protected", "virtual",
        "override", "final",    "inline",    "static",
        "extern",   "mutable",  "operator",  "template",
        "typename", "auto",     "friend",    "explicit",
        "typeid",   "decltype", "alignof",   "requires",
        "concept",  "if",       "while",     "for",
        "switch",   "catch",
    };
    return kw.count(s) != 0;
}

/**
 * Declared types of variables/members/parameters, recovered from
 * adjacent `Type name` (and `Tmpl<...> name`) token pairs
 * project-wide. Used to *prune* impossible call-graph bindings:
 * `_scalars.end()` with `std::map<...> _scalars` declared cannot
 * target `TraceSink::end`. Unknown receivers stay unpruned, so this
 * only removes edges the declarations provably exclude -- the graph
 * remains an over-approximation.
 */
class ReceiverTypes
{
  public:
    explicit ReceiverTypes(const Project &proj) : _proj(proj)
    {
        for (const auto &fptr : proj.files())
            scan(*fptr);
    }

    /** May call site @p cs really target @p callee? */
    bool
    allows(const CallSite &cs, const FunctionDef &callee) const
    {
        if (callee.className.empty())
            return true; // free function: no receiver to contradict
        if (cs.receiver.empty() || cs.receiver == "this" ||
            cs.qualified)
            return true;
        auto it = _types.find(cs.receiver);
        if (it == _types.end())
            return true; // receiver of unknown type: stay sound
        for (const std::string &t : it->second)
            if (t == callee.className ||
                _proj.derivesFrom(t, callee.className))
                return true;
        return false;
    }

  private:
    void
    scan(const SourceFile &f)
    {
        const auto &toks = f.tokens();
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
            const Token &v = toks[i];
            if (v.inDirective || v.kind != TokKind::Identifier)
                continue;
            const std::string &next = toks[i + 1].text;
            if (next != ";" && next != "=" && next != "{" &&
                next != "," && next != ")" && next != "[")
                continue;
            // Walk back over declarator decorations to the type.
            std::size_t k = i;
            while (k-- > 0 && (toks[k].text == "*" ||
                               toks[k].text == "&" ||
                               toks[k].text == "const"))
                ;
            if (k >= toks.size())
                continue;
            if (toks[k].kind == TokKind::Identifier) {
                if (!isStatementKeyword(toks[k].text))
                    _types[v.text].insert(toks[k].text);
            } else if (toks[k].text == ">") {
                // Tmpl<Arg, ...> name: both the template head and
                // its type arguments are plausible receiver types
                // (unique_ptr<TraceSink> p; p->record()).
                int depth = 1;
                while (k-- > 0 && depth > 0) {
                    if (toks[k].text == ">")
                        ++depth;
                    else if (toks[k].text == "<")
                        --depth;
                    else if (toks[k].kind == TokKind::Identifier &&
                             !isStatementKeyword(toks[k].text))
                        _types[v.text].insert(toks[k].text);
                }
                if (k < toks.size() &&
                    toks[k].kind == TokKind::Identifier &&
                    !isStatementKeyword(toks[k].text))
                    _types[v.text].insert(toks[k].text);
            }
        }
    }

    const Project &_proj;
    std::map<std::string, std::set<std::string>> _types;
};

// ------------------------------------------------------------- lockset

/**
 * Must-hold lockset propagation: a guarded field access is legal when
 * the annotated mutex is lexically held at the access, or when every
 * caller (recursively) holds it at the call site -- which *proves*
 * the `*Locked`-helper and private-callee patterns the old guarded-by
 * rule merely exempted by name.
 */
class LocksetAnalysis
{
  public:
    LocksetAnalysis(const Project &proj, const LockModel &model,
                    const ReceiverTypes &types)
        : _proj(proj), _model(model), _types(types)
    {
    }

    /**
     * Do all callers of @p fn hold @p mutex at their call sites?
     * False for functions without resolved callers (nothing proves
     * the lockset) and for recursion cycles (conservative). On
     * failure, the first offending call site is appended to
     * @p blame.
     */
    bool
    provenByCallers(int fn, const std::string &mutex,
                    std::vector<FlowStep> &blame)
    {
        auto key = std::make_pair(fn, mutex);
        auto it = _memo.find(key);
        if (it != _memo.end())
            return it->second;
        // In-progress recursion resolves to "not proven".
        _memo[key] = false;

        const ProjectIndex &idx = _proj.index();
        const FunctionDef &def =
            idx.functions()[static_cast<std::size_t>(fn)];
        const auto &callers = _proj.callGraph().callersOf(fn);
        bool ok = true;
        std::size_t considered = 0;
        for (const CallerEdge &e : callers) {
            const CallSite &cs =
                idx.calls()[static_cast<std::size_t>(e.callSiteIdx)];
            if (!_types.allows(cs, def))
                continue; // receiver type excludes this binding
            ++considered;
            if (e.callerFn < 0) {
                ok = false; // file-scope call: no lock context
                continue;
            }
            if (_model.holds(e.callerFn, cs.tokenIdx, mutex))
                continue;
            std::vector<FlowStep> inner;
            if (provenByCallers(e.callerFn, mutex, inner))
                continue;
            ok = false;
            if (blame.size() < 3) {
                const FunctionDef &g =
                    idx.functions()[static_cast<std::size_t>(
                        e.callerFn)];
                blame.push_back(
                    {_proj.files()[static_cast<std::size_t>(
                                       cs.fileIdx)]
                         ->relPath(),
                     cs.line,
                     "called from '" + fnLabel(g) +
                         "' without holding " + mutex});
            }
        }
        // No (plausible) caller at all: nothing proves the lockset.
        ok = ok && considered > 0;
        _memo[key] = ok;
        return ok;
    }

  private:
    const Project &_proj;
    const LockModel &_model;
    const ReceiverTypes &_types;
    std::map<std::pair<int, std::string>, bool> _memo;
};

} // namespace

void
checkLockset(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    LockModel model(proj);
    ReceiverTypes types(proj);
    LocksetAnalysis locksets(proj, model, types);
    const auto &files = proj.files();

    for (const GuardedField &gf : idx.guardedFields()) {
        if (gf.className.empty())
            continue;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            const SourceFile &f = *files[fi];
            const auto &toks = f.tokens();
            for (std::size_t i = 0; i < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.inDirective ||
                    t.kind != TokKind::Identifier ||
                    t.text != gf.field)
                    continue;
                int fb = f.enclosingFunction(i);
                if (fb < 0)
                    continue; // declaration / member-init list
                const Block &blk =
                    f.blocks()[static_cast<std::size_t>(fb)];
                if (blk.className != gf.className)
                    continue; // another class's same-named member
                if (blk.name == gf.className ||
                    blk.name == "~" + gf.className)
                    continue; // ctor/dtor: no concurrent access yet
                int fn = idx.functionAt(static_cast<int>(fi), i);
                if (fn < 0)
                    continue;
                if (model.holds(fn, i, gf.mutexName))
                    continue;
                std::vector<FlowStep> blame;
                if (locksets.provenByCallers(fn, gf.mutexName,
                                             blame))
                    continue;
                Diagnostic d;
                d.file = f.relPath();
                d.line = t.line;
                d.rule = "lockset";
                d.message =
                    gf.className + "::" + gf.field +
                    " is guarded-by(" + gf.mutexName + ") but '" +
                    blk.name + "' accesses it without holding the "
                    "lock" +
                    (blame.empty()
                         ? " and no caller proves the lockset"
                         : " and at least one caller does not hold "
                           "it either");
                d.flow.push_back({f.relPath(), t.line,
                                  "unprotected access to " +
                                      gf.className + "::" +
                                      gf.field});
                for (FlowStep &s : blame)
                    d.flow.push_back(std::move(s));
                out.push_back(std::move(d));
            }
        }
    }
}

// ----------------------------------------------------------- lock-order

namespace
{

/** One observed "acquired `to` while holding `from`" edge. */
struct OrderEdge
{
    std::string file;
    int line = 0;
    std::string note;
};

/** A mutex name qualified by the owning class when it looks like a
 *  member (leading underscore), so ShardStats::_mutex and
 *  TraceSink::_mutex stay distinct lock-order nodes. */
std::string
qualifyMutex(const FunctionDef &fn, const std::string &mutex)
{
    if (!fn.className.empty() && !mutex.empty() && mutex[0] == '_')
        return fn.className + "::" + mutex;
    return mutex;
}

/**
 * The set of mutexes a function may acquire, directly or through any
 * call it makes (over-approximate; memoized DFS over the call
 * graph). Direct-recursion self edges are skipped: `x.merge(...)`
 * inside ShardStats::merge over-approximately binds back to itself,
 * which would otherwise fabricate a self-deadlock.
 */
class AcquireClosure
{
  public:
    AcquireClosure(const Project &proj, const LockModel &model,
                   const ReceiverTypes &types)
        : _proj(proj), _model(model), _types(types)
    {
        const auto &calls = proj.index().calls();
        for (std::size_t c = 0; c < calls.size(); ++c)
            if (calls[c].callerFn >= 0)
                _sitesOf[calls[c].callerFn].push_back(
                    static_cast<int>(c));
    }

    /** Call sites inside FunctionDef @p fn. */
    const std::vector<int> &
    sitesOf(int fn) const
    {
        static const std::vector<int> none;
        auto it = _sitesOf.find(fn);
        return it == _sitesOf.end() ? none : it->second;
    }

    /** Qualified mutex names @p fn may acquire, with one
     *  representative acquisition site each. */
    const std::map<std::string, FlowStep> &
    of(int fn)
    {
        auto it = _memo.find(fn);
        if (it != _memo.end())
            return it->second;
        // Break cycles: a function currently being resolved
        // contributes nothing extra to its own closure.
        _memo[fn];

        const ProjectIndex &idx = _proj.index();
        const FunctionDef &def =
            idx.functions()[static_cast<std::size_t>(fn)];
        const std::string &rel =
            _proj.files()[static_cast<std::size_t>(def.fileIdx)]
                ->relPath();
        Closure closure;
        for (const Acquisition &a : _model.acquisitionsOf(fn))
            for (const std::string &m : a.mutexes)
                closure.emplace(
                    qualifyMutex(def, m),
                    FlowStep{rel, a.line,
                             "'" + fnLabel(def) + "' acquires " +
                                 qualifyMutex(def, m)});
        for (int c : sitesOf(fn)) {
            const CallSite &cs =
                idx.calls()[static_cast<std::size_t>(c)];
            for (int callee : _proj.callGraph().calleesOf(c)) {
                if (callee == fn)
                    continue; // direct recursion
                if (!_types.allows(
                        cs, idx.functions()[static_cast<
                                std::size_t>(callee)]))
                    continue;
                for (const auto &[m, site] : of(callee))
                    closure.emplace(m, site);
            }
        }
        // Re-find: recursive of() calls may have rehashed the map.
        return _memo[fn] = std::move(closure);
    }

  private:
    using Closure = std::map<std::string, FlowStep>;
    const Project &_proj;
    const LockModel &_model;
    const ReceiverTypes &_types;
    std::map<int, std::vector<int>> _sitesOf;
    std::map<int, Closure> _memo;
};

} // namespace

void
checkLockOrder(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    LockModel model(proj);
    ReceiverTypes types(proj);
    AcquireClosure closure(proj, model, types);
    const auto &files = proj.files();
    const auto &fns = idx.functions();

    // from -> to -> first acquisition site that witnesses the edge.
    std::map<std::string, std::map<std::string, OrderEdge>> graph;
    auto addEdge = [&](const std::string &from, const std::string &to,
                       OrderEdge edge) {
        if (from == to)
            return;
        graph[from].emplace(to, std::move(edge));
        graph.try_emplace(to); // every node has an adjacency row
    };

    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
        const FunctionDef &fn = fns[fi];
        const std::string &rel =
            files[static_cast<std::size_t>(fn.fileIdx)]->relPath();
        if (!inSrcOrBench(rel))
            continue;
        const auto &acqs = model.acquisitionsOf(static_cast<int>(fi));
        for (std::size_t ai = 0; ai < acqs.size(); ++ai) {
            const Acquisition &a = acqs[ai];
            // Nested acquisition inside the same function.
            for (std::size_t bi = 0; bi < acqs.size(); ++bi) {
                const Acquisition &b = acqs[bi];
                if (bi == ai || b.tokenIdx <= a.tokenIdx ||
                    b.tokenIdx >= a.holdEnd)
                    continue;
                for (const std::string &ma : a.mutexes)
                    for (const std::string &mb : b.mutexes) {
                        std::string note = "'";
                        note += fnLabel(fn);
                        note += "' acquires ";
                        note += qualifyMutex(fn, mb);
                        note += " while holding ";
                        note += qualifyMutex(fn, ma);
                        addEdge(qualifyMutex(fn, ma),
                                qualifyMutex(fn, mb),
                                {rel, b.line, std::move(note)});
                    }
            }
            // Acquisitions reached transitively through calls made
            // while the lock is held.
            for (int c : closure.sitesOf(static_cast<int>(fi))) {
                const CallSite &cs =
                    idx.calls()[static_cast<std::size_t>(c)];
                if (cs.tokenIdx <= a.tokenIdx ||
                    cs.tokenIdx >= a.holdEnd)
                    continue;
                for (int callee :
                     proj.callGraph().calleesOf(c)) {
                    if (callee == static_cast<int>(fi))
                        continue; // direct recursion
                    if (!types.allows(
                            cs, fns[static_cast<std::size_t>(
                                    callee)]))
                        continue;
                    for (const auto &[mb, site] :
                         closure.of(callee)) {
                        for (const std::string &ma : a.mutexes) {
                            std::string note = "'";
                            note += fnLabel(fn);
                            note += "' holds ";
                            note += qualifyMutex(fn, ma);
                            note += " across a call to '";
                            note += cs.callee;
                            note += "', which acquires ";
                            note += mb;
                            addEdge(qualifyMutex(fn, ma), mb,
                                    {rel, cs.line,
                                     std::move(note)});
                        }
                    }
                }
            }
        }
    }

    // Report each elementary cycle once (canonicalized rotation).
    std::set<std::string> reported;
    std::vector<std::string> stack;
    std::set<std::string> onStack, done;
    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            stack.push_back(node);
            onStack.insert(node);
            for (const auto &[next, edge] : graph[node]) {
                if (onStack.count(next)) {
                    // Cycle: the stack suffix from `next` to `node`.
                    auto begin = std::find(stack.begin(),
                                           stack.end(), next);
                    std::vector<std::string> cycle(begin,
                                                   stack.end());
                    auto smallest = std::min_element(cycle.begin(),
                                                     cycle.end());
                    std::rotate(cycle.begin(), smallest,
                                cycle.end());
                    std::string key;
                    for (const std::string &n : cycle)
                        key += n + ";";
                    if (!reported.insert(key).second)
                        continue;

                    Diagnostic d;
                    d.rule = "lock-order";
                    std::string order;
                    for (std::size_t i = 0; i < cycle.size(); ++i) {
                        const std::string &from = cycle[i];
                        const std::string &to =
                            cycle[(i + 1) % cycle.size()];
                        const OrderEdge &e = graph[from].at(to);
                        if (i == 0) {
                            d.file = e.file;
                            d.line = e.line;
                        }
                        order += from + " -> ";
                        d.flow.push_back({e.file, e.line, e.note});
                    }
                    order += cycle.front();
                    d.message =
                        "lock-order cycle " + order +
                        ": threads acquiring these mutexes in "
                        "different orders can deadlock";
                    out.push_back(std::move(d));
                    continue;
                }
                if (!done.count(next))
                    dfs(next);
            }
            onStack.erase(node);
            stack.pop_back();
            done.insert(node);
        };
    for (const auto &[node, adj] : graph) {
        (void)adj;
        if (!done.count(node))
            dfs(node);
    }
}

// -------------------------------------------------------- atomic-sanity

namespace
{

/** Names suggesting an atomic is a readiness/handoff flag, where a
 *  relaxed store would publish data without a release fence. */
bool
isFlagLike(const std::string &name)
{
    const std::string l = toLower(name);
    for (const char *n : {"flag", "ready", "done", "publish", "stop",
                          "init", "running", "shutdown", "quit",
                          "enabled"})
        if (l.find(n) != std::string::npos)
            return true;
    return false;
}

/** Project-wide names of std::atomic<...> variables/fields. */
std::set<std::string>
atomicNames(const Project &proj)
{
    std::set<std::string> names;
    for (const auto &fptr : proj.files()) {
        const auto &toks = fptr->tokens();
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].inDirective ||
                toks[i].kind != TokKind::Identifier ||
                (toks[i].text != "atomic" &&
                 toks[i].text != "atomic_flag"))
                continue;
            std::size_t j = i + 1;
            if (toks[j].text == "<") {
                int depth = 1;
                for (++j; j < toks.size() && depth > 0; ++j) {
                    if (toks[j].text == "<")
                        ++depth;
                    else if (toks[j].text == ">")
                        --depth;
                }
            }
            if (j < toks.size() &&
                toks[j].kind == TokKind::Identifier)
                names.insert(toks[j].text);
        }
    }
    return names;
}

void
reportSplitRmw(std::vector<Diagnostic> &out, const SourceFile &f,
               const Token &t, const char *what)
{
    out.push_back(
        {f.relPath(), t.line, "atomic-sanity",
         std::string("split load/store read-modify-write on atomic "
                     "'") +
             t.text + "' (the " + what +
             " reads it again) -- racing threads lose updates "
             "between the load and the store; use fetch_add/"
             "exchange/compare_exchange",
         {}});
}

/** Does the token range [begin, end) mention identifier @p name? */
bool
rangeMentions(const std::vector<Token> &toks, std::size_t begin,
              std::size_t end, const std::string &name)
{
    for (std::size_t k = begin; k < end && k < toks.size(); ++k)
        if (toks[k].kind == TokKind::Identifier &&
            toks[k].text == name)
            return true;
    return false;
}

/** Token index one past the closing paren opened at @p open. */
std::size_t
closeOfParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].text == "(")
            ++depth;
        else if (toks[k].text == ")" && --depth == 0)
            return k + 1;
    }
    return toks.size();
}

} // namespace

void
checkAtomicSanity(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    LockModel model(proj);
    const std::set<std::string> atomics = atomicNames(proj);
    if (atomics.empty())
        return;
    const auto &files = proj.files();

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile &f = *files[fi];
        if (!inSrcOrBench(f.relPath()))
            continue;
        const auto &toks = f.tokens();
        // Per (function, var): a compare_exchange in the same
        // function legitimizes load/CAS retry shapes.
        std::set<std::pair<int, std::string>> hasCas;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i)
            if (toks[i].kind == TokKind::Identifier &&
                atomics.count(toks[i].text) &&
                (toks[i + 1].text == "." ||
                 toks[i + 1].text == "->") &&
                startsWith(toks[i + 2].text, "compare_exchange"))
                hasCas.emplace(f.enclosingFunction(i),
                               toks[i].text);

        std::set<std::pair<int, std::string>> dclReported;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier ||
                !atomics.count(t.text))
                continue;
            int fb = f.enclosingFunction(i);
            if (fb < 0)
                continue;
            bool casHere = hasCas.count({fb, t.text}) != 0;

            // (a) Split read-modify-write: `a = <expr using a>` or
            // `a.store(<expr using a>)` loses updates racing between
            // the load and the store.
            if (i + 2 < toks.size() && toks[i + 1].text == "=" &&
                toks[i + 2].text != "=" &&
                (i == 0 || (toks[i - 1].text != "." &&
                            toks[i - 1].text != "->" &&
                            toks[i - 1].text != "=" &&
                            toks[i - 1].text != "!" &&
                            toks[i - 1].text != "<" &&
                            toks[i - 1].text != ">"))) {
                std::size_t semi = i + 2;
                while (semi < toks.size() && toks[semi].text != ";")
                    ++semi;
                if (!casHere &&
                    rangeMentions(toks, i + 2, semi, t.text))
                    reportSplitRmw(out, f, t, "assignment");
            }
            if (i + 3 < toks.size() &&
                (toks[i + 1].text == "." ||
                 toks[i + 1].text == "->") &&
                toks[i + 2].text == "store" &&
                toks[i + 3].text == "(") {
                std::size_t end = closeOfParen(toks, i + 3);
                if (!casHere &&
                    rangeMentions(toks, i + 4, end - 1, t.text))
                    reportSplitRmw(out, f, t, "store");
                // (b) Relaxed store to a readiness flag publishes
                // the data it guards without a release fence.
                if (isFlagLike(t.text) &&
                    rangeMentions(toks, i + 4, end - 1,
                                  "memory_order_relaxed"))
                    out.push_back(
                        {f.relPath(), t.line, "atomic-sanity",
                         "memory_order_relaxed store to "
                         "flag-like atomic '" + t.text +
                             "' -- a readiness flag handoff needs "
                             "release/acquire (or seq_cst) so the "
                             "data it publishes is visible",
                         {}});
            }

            // (c) Double-checked locking: a relaxed load decides to
            // skip the lock, but without acquire the initialized
            // data may not be visible yet.
            if (i + 3 < toks.size() &&
                (toks[i + 1].text == "." ||
                 toks[i + 1].text == "->") &&
                toks[i + 2].text == "load" &&
                toks[i + 3].text == "(") {
                std::size_t end = closeOfParen(toks, i + 3);
                if (!rangeMentions(toks, i + 4, end - 1,
                                   "memory_order_relaxed"))
                    continue;
                // Inside an if-condition?
                bool inIf = false;
                for (std::size_t back = i; back-- > 0 &&
                                           back + 4 > i;) {
                    const std::string &p = toks[back].text;
                    if (p == "!" || p == "(")
                        continue;
                    inIf = p == "if";
                    break;
                }
                if (!inIf || casHere)
                    continue;
                int fn = idx.functionAt(static_cast<int>(fi), i);
                if (fn < 0)
                    continue;
                // A later lock acquisition followed by another use
                // of the same atomic completes the DCL shape.
                bool dcl = false;
                for (const Acquisition &a :
                     model.acquisitionsOf(fn))
                    if (a.tokenIdx > i &&
                        rangeMentions(toks, a.tokenIdx, a.holdEnd,
                                      t.text))
                        dcl = true;
                if (dcl &&
                    dclReported.emplace(fb, t.text).second)
                    out.push_back(
                        {f.relPath(), t.line, "atomic-sanity",
                         "double-checked locking on '" + t.text +
                             "' uses memory_order_relaxed for the "
                             "racing load -- the fast path needs "
                             "memory_order_acquire (paired with a "
                             "release store) to see the "
                             "initialized data",
                         {}});
            }
        }
    }
}

// -------------------------------------------------------- shard-escape

namespace
{

bool
isDeclKeyword(const std::string &s)
{
    return s == "using" || s == "typedef" || s == "namespace" ||
           s == "class" || s == "struct" || s == "enum" ||
           s == "template" || s == "return" || s == "friend" ||
           s == "operator" || s == "new" || s == "delete" ||
           s == "co_return" || s == "throw" || s == "case" ||
           s == "goto" || s == "sizeof" || s == "alignof" ||
           s == "decltype" || s == "else" || s == "do";
}

/** Types that are themselves safe to share across shards. */
bool
isSyncType(const std::string &s)
{
    return s == "atomic" || s == "atomic_flag" || s == "mutex" ||
           s == "shared_mutex" || s == "recursive_mutex" ||
           s == "timed_mutex" || s == "once_flag" ||
           s == "condition_variable" || s == "atomic_bool" ||
           s == "atomic_int" || s == "atomic_uint64_t";
}

/** Simulation state a shard must own: a worker runs many shards in
 *  turn, so even a thread_local instance is shared between them. */
bool
isShardStateType(const std::string &s)
{
    return s == "Random" || s == "EventQueue";
}

/** Where a shared mutable variable the rule tracks is declared. */
struct SharedVar
{
    std::string file;
    int line = 0;
};

/**
 * Class names that own a std::mutex (or other sync member): their
 * instances serialize access internally, so sharing one with shard
 * code is the *intended* pattern (TraceSink is the archetype).
 */
std::set<std::string>
mutexOwningTypes(const Project &proj)
{
    std::set<std::string> types;
    for (const auto &fptr : proj.files()) {
        const SourceFile &f = *fptr;
        const auto &toks = f.tokens();
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier ||
                (t.text != "mutex" && t.text != "shared_mutex" &&
                 t.text != "recursive_mutex"))
                continue;
            int b = f.enclosingBlock(i);
            while (b >= 0) {
                const Block &blk =
                    f.blocks()[static_cast<std::size_t>(b)];
                if (blk.kind == Block::Kind::Type) {
                    if (!blk.name.empty())
                        types.insert(blk.name);
                    break;
                }
                if (blk.kind == Block::Kind::Function)
                    break; // local variable, not a member
                b = blk.parent;
            }
        }
    }
    return types;
}

} // namespace

void
checkShardEscape(const Project &proj, std::vector<Diagnostic> &out)
{
    const ProjectIndex &idx = proj.index();
    const CallGraph &cg = proj.callGraph();
    LockModel model(proj);
    ReceiverTypes types(proj);
    const auto &files = proj.files();
    const auto &fns = idx.functions();
    const std::set<std::string> safeTypes = mutexOwningTypes(proj);

    // ---- roots: functions executed inside a shard (take a
    // ShardContext) or whose lambdas the shard driver runs (call
    // runShards/shardMap/runShardedBench; lambdas are attributed to
    // the enclosing function).
    std::map<int, std::vector<int>> sitesOf;
    const auto &calls = idx.calls();
    for (std::size_t c = 0; c < calls.size(); ++c)
        if (calls[c].callerFn >= 0)
            sitesOf[calls[c].callerFn].push_back(
                static_cast<int>(c));

    std::deque<int> todo;
    std::map<int, int> parent; // reached fn -> fn it was reached from
    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
        const FunctionDef &fn = fns[fi];
        const SourceFile &f =
            *files[static_cast<std::size_t>(fn.fileIdx)];
        const Block &blk =
            f.blocks()[static_cast<std::size_t>(fn.blockIdx)];
        bool root = rangeMentions(f.tokens(), blk.stmtStart,
                                  blk.open, "ShardContext");
        if (!root) {
            auto it = sitesOf.find(static_cast<int>(fi));
            if (it != sitesOf.end())
                for (int c : it->second) {
                    const std::string &callee =
                        calls[static_cast<std::size_t>(c)].callee;
                    if (callee == "runShards" ||
                        callee == "shardMap" ||
                        callee == "runShardedBench")
                        root = true;
                }
        }
        if (root && parent.emplace(static_cast<int>(fi), -1).second)
            todo.push_back(static_cast<int>(fi));
    }

    // ---- forward reachability through the call graph.
    while (!todo.empty()) {
        int fn = todo.front();
        todo.pop_front();
        auto it = sitesOf.find(fn);
        if (it == sitesOf.end())
            continue;
        for (int c : it->second)
            for (int callee : cg.calleesOf(c)) {
                if (!types.allows(
                        calls[static_cast<std::size_t>(c)],
                        fns[static_cast<std::size_t>(callee)]))
                    continue;
                if (parent.emplace(callee, fn).second)
                    todo.push_back(callee);
            }
    }

    // ---- shared mutable state: namespace-scope non-const
    // variables in src|bench (excluding sync types, mutex-owning
    // classes, type aliases, and thread_local scratch other than
    // Random/EventQueue -- per-worker by design).
    std::map<std::string, SharedVar> shared;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile &f = *files[fi];
        if (!inSrcOrBench(f.relPath()))
            continue;
        const auto &toks = f.tokens();
        for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier ||
                t.parenDepth > 0)
                continue;
            const std::string &next = toks[i + 1].text;
            if (next != "=" && next != ";" && next != "{" &&
                next != "[" && next != "(")
                continue;
            if (toks[i - 1].kind != TokKind::Identifier ||
                isDeclKeyword(toks[i - 1].text) ||
                isSyncType(toks[i - 1].text) ||
                safeTypes.count(toks[i - 1].text))
                continue;
            if (f.enclosingFunction(i) >= 0)
                continue; // locals are frame-owned
            int b = f.enclosingBlock(i);
            if (b >= 0 &&
                f.blocks()[static_cast<std::size_t>(b)].kind !=
                    Block::Kind::Namespace)
                continue; // members, enumerators, initializers
            if (next == "(" && f.declaresFunction(i))
                continue;
            // Qualifiers: const/constexpr are immutable, template
            // args and alias/typedef heads are not variables.
            bool mutable_var = true;
            for (std::size_t k = i; k-- > 0;) {
                const std::string &p = toks[k].text;
                if (p == "thread_local") {
                    mutable_var = isShardStateType(toks[i - 1].text);
                    break;
                }
                if (p == "const" || p == "constexpr" || p == "using" ||
                    p == "typedef" || p == "extern") {
                    mutable_var = p == "extern";
                    break;
                }
                if (p == ";" || p == "}" || p == "{" || p == ":" ||
                    k + 8 < i)
                    break;
            }
            if (!mutable_var)
                continue;
            shared.emplace(t.text, SharedVar{f.relPath(), t.line});
        }
    }

    // ---- flag uses of shared state in shard-reachable functions,
    // plus function-local statics declared there.
    for (const auto &[fnIdx, from] : parent) {
        (void)from;
        const FunctionDef &fn =
            fns[static_cast<std::size_t>(fnIdx)];
        const SourceFile &f =
            *files[static_cast<std::size_t>(fn.fileIdx)];
        if (!inSrcOrBench(f.relPath()))
            continue;
        const auto &toks = f.tokens();
        auto chain = [&](int leaf) {
            std::vector<FlowStep> steps;
            for (int cur = leaf; cur >= 0 && steps.size() < 4;
                 cur = parent.at(cur)) {
                const FunctionDef &g =
                    fns[static_cast<std::size_t>(cur)];
                steps.push_back(
                    {files[static_cast<std::size_t>(g.fileIdx)]
                         ->relPath(),
                     g.line,
                     "'" + fnLabel(g) + "' runs in shard context"});
            }
            std::reverse(steps.begin(), steps.end());
            return steps;
        };

        for (std::size_t i = fn.open + 1;
             i < fn.close && i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.inDirective || t.kind != TokKind::Identifier)
                continue;

            // Function-local static mutable state.
            if (t.text == "static" || (t.text == "thread_local" &&
                                       toks[i - 1].text != "static")) {
                bool immutable = false;
                bool per_worker = t.text == "thread_local";
                std::size_t j = i + 1;
                for (; j < toks.size(); ++j) {
                    const std::string &q = toks[j].text;
                    if (q == "const" || q == "constexpr")
                        immutable = true;
                    else if (q == "thread_local")
                        per_worker = true;
                    else
                        break;
                }
                if (immutable || j + 1 >= toks.size() ||
                    toks[j].kind != TokKind::Identifier ||
                    (per_worker && !isShardStateType(toks[j].text)) ||
                    isSyncType(toks[j].text) || safeTypes.count(toks[j].text))
                    continue;
                Diagnostic d;
                d.file = f.relPath();
                d.line = t.line;
                d.rule = "shard-escape";
                d.message =
                    "function-local static mutable state in '" +
                    fnLabel(fn) +
                    "', which runs in shard context -- every "
                    "shard mutates one shared instance; move it "
                    "into ShardContext or make it atomic/"
                    "lock-guarded";
                d.flow = chain(fnIdx);
                d.flow.push_back({f.relPath(), t.line,
                                  "shared static declared here"});
                out.push_back(std::move(d));
                continue;
            }

            auto sv = shared.find(t.text);
            if (sv == shared.end())
                continue;
            // Not a member access of something else, not a call.
            if (i > 0 && (toks[i - 1].text == "." ||
                          toks[i - 1].text == "->" ||
                          toks[i - 1].text == "::"))
                continue;
            if (i + 1 < toks.size() && toks[i + 1].text == "(")
                continue;
            // A lexically held lock is legitimate protection.
            if (model.holdsAny(fnIdx, i))
                continue;
            Diagnostic d;
            d.file = f.relPath();
            d.line = t.line;
            d.rule = "shard-escape";
            d.message =
                "shared mutable state '" + t.text + "' (" +
                sv->second.file + ":" +
                std::to_string(sv->second.line) +
                ") is reached from shard-executed code in '" +
                fnLabel(fn) +
                "' without lock/atomic protection -- shards must "
                "own their state (see ShardContext)";
            d.flow = chain(fnIdx);
            d.flow.push_back(
                {f.relPath(), t.line,
                 "unprotected access to '" + t.text + "'"});
            out.push_back(std::move(d));
        }
    }
}

} // namespace hypertee::htlint
