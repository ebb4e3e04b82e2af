#include "tools/htlint/driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "tools/htlint/callgraph.hh"
#include "tools/htlint/index.hh"
#include "tools/htlint/sarif.hh"

namespace hypertee::htlint
{

// ---------------------------------------------------------------- Project

Project::Project() = default;
Project::~Project() = default;

bool
Project::addFile(const std::string &path, const std::string &rel_path)
{
    auto f = std::make_unique<SourceFile>();
    if (!f->load(path, rel_path))
        return false;
    addParsed(std::move(f));
    return true;
}

void
Project::addText(std::string text, const std::string &rel_path)
{
    auto f = std::make_unique<SourceFile>();
    f->loadText(std::move(text), rel_path);
    addParsed(std::move(f));
}

void
Project::addParsed(std::unique_ptr<SourceFile> file)
{
    indexFile(*file);
    _byRelPath[file->relPath()] = _files.size();
    _files.push_back(std::move(file));
    _index.reset();
    _callGraph.reset();
}

void
Project::indexFile(const SourceFile &f)
{
    for (const Block &b : f.blocks()) {
        if (b.kind == Block::Kind::Type && !b.name.empty() &&
            !b.bases.empty()) {
            auto &bases = _classBases[b.name];
            bases.insert(bases.end(), b.bases.begin(),
                         b.bases.end());
        }
    }
    // Functions declared to return PhysicalMemory& / PhysicalMemory*
    // (accessors like HyperTeeSystem::csMem) -- the mediation rule
    // treats calls through them as direct physical-memory access.
    const auto &toks = f.tokens();
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].inDirective ||
            toks[i].kind != TokKind::Identifier ||
            toks[i].text != "PhysicalMemory")
            continue;
        if (toks[i + 1].text != "&" && toks[i + 1].text != "*")
            continue;
        if (toks[i + 2].kind != TokKind::Identifier ||
            toks[i + 3].text != "(")
            continue;
        if (f.enclosingFunction(i) >= 0)
            continue; // local variable with ctor args, not a decl
        _physMemAccessors.insert(toks[i + 2].text);
    }
}

const ProjectIndex &
Project::index() const
{
    if (!_index) {
        _index = std::make_unique<ProjectIndex>();
        _index->build(_files);
    }
    return *_index;
}

const CallGraph &
Project::callGraph() const
{
    if (!_callGraph) {
        _callGraph = std::make_unique<CallGraph>();
        _callGraph->build(index());
    }
    return *_callGraph;
}

const SourceFile *
Project::pairOf(const SourceFile &file) const
{
    const std::string &rel = file.relPath();
    auto swap_ext = [&](const char *from,
                        const char *to) -> const SourceFile * {
        std::string f(from);
        if (rel.size() <= f.size() ||
            rel.compare(rel.size() - f.size(), f.size(), f) != 0)
            return nullptr;
        std::string other =
            rel.substr(0, rel.size() - f.size()) + to;
        auto it = _byRelPath.find(other);
        return it == _byRelPath.end() ? nullptr
                                      : _files[it->second].get();
    };
    if (const SourceFile *p = swap_ext(".cc", ".hh"))
        return p;
    if (const SourceFile *p = swap_ext(".hh", ".cc"))
        return p;
    if (const SourceFile *p = swap_ext(".cpp", ".hpp"))
        return p;
    if (const SourceFile *p = swap_ext(".hpp", ".cpp"))
        return p;
    return nullptr;
}

const std::vector<std::string> &
Project::basesOf(const std::string &class_name) const
{
    static const std::vector<std::string> none;
    auto it = _classBases.find(class_name);
    return it == _classBases.end() ? none : it->second;
}

bool
Project::derivesFrom(const std::string &class_name,
                     const std::string &base) const
{
    std::vector<std::string> todo = {class_name};
    std::set<std::string> seen;
    while (!todo.empty()) {
        std::string cur = todo.back();
        todo.pop_back();
        if (!seen.insert(cur).second)
            continue;
        for (const std::string &b : basesOf(cur)) {
            if (b == base)
                return true;
            todo.push_back(b);
        }
    }
    return false;
}

std::vector<Diagnostic>
Project::run(const std::set<std::string> &rules) const
{
    std::vector<Diagnostic> out;
    for (const RuleInfo &r : allRules()) {
        if (!rules.empty() && !rules.count(r.name))
            continue;
        if (r.checkProject)
            r.checkProject(*this, out);
        if (!r.check)
            continue;
        for (const auto &f : _files)
            r.check(*f, *this, out);
    }
    // Drop suppressed findings.
    std::vector<Diagnostic> kept;
    for (Diagnostic &d : out) {
        auto it = _byRelPath.find(d.file);
        if (it != _byRelPath.end() &&
            _files[it->second]->suppressed(d.rule, d.line))
            continue;
        kept.push_back(std::move(d));
    }
    std::sort(kept.begin(), kept.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return kept;
}

// ------------------------------------------------------------------- CLI

namespace
{

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

const char usage[] =
    "usage: htlint [--rules=r1,r2] [--format=text|sarif]\n"
    "              [--jobs=N] [--no-default-excludes] [--stats]\n"
    "              [--list-rules] [--list-suppressions]\n"
    "              <files-or-dirs>...\n";

/** Validate one rule name; explains with a hint on failure. */
bool
checkRuleName(const std::string &name, const char *what,
              std::ostream &err)
{
    for (const RuleInfo &info : allRules())
        if (name == info.name)
            return true;
    err << "htlint: unknown rule '" << name << "' in " << what;
    std::string hint = closestRuleName(name);
    if (!hint.empty())
        err << " (did you mean '" << hint << "'?)";
    err << "\n";
    return false;
}

} // namespace

std::string
closestRuleName(const std::string &name)
{
    std::string best;
    std::size_t best_dist = name.size(); // worse than this: no hint
    for (const RuleInfo &info : allRules()) {
        std::size_t dist = editDistance(name, info.name);
        if (dist < best_dist || (dist == best_dist && best.empty())) {
            best_dist = dist;
            best = info.name;
        }
    }
    return best_dist <= 3 ? best : "";
}

bool
parseArgs(int argc, const char *const *argv, Options &opts,
          std::ostream &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-rules") {
            opts.listRules = true;
        } else if (arg == "--list-suppressions") {
            opts.listSuppressions = true;
        } else if (arg == "--no-default-excludes") {
            opts.defaultExcludes = false;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg.rfind("--rules=", 0) == 0) {
            std::string list = arg.substr(8);
            std::size_t start = 0;
            while (start <= list.size()) {
                std::size_t comma = list.find(',', start);
                std::string name =
                    comma == std::string::npos
                        ? list.substr(start)
                        : list.substr(start, comma - start);
                if (!name.empty())
                    opts.rules.insert(name);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (arg.rfind("--format=", 0) == 0) {
            opts.format = arg.substr(9);
            if (opts.format != "text" && opts.format != "sarif") {
                err << "htlint: unknown format '" << opts.format
                    << "' (expected text or sarif)\n";
                return false;
            }
        } else if (arg.rfind("--jobs=", 0) == 0) {
            try {
                opts.jobs = std::stoi(arg.substr(7));
            } catch (...) {
                opts.jobs = 0;
            }
            if (opts.jobs < 1) {
                err << "htlint: --jobs needs a positive integer\n";
                return false;
            }
        } else if (arg == "--help" || arg == "-h") {
            err << usage;
            return false;
        } else if (!arg.empty() && arg[0] == '-') {
            err << "htlint: unknown option '" << arg << "'\n";
            return false;
        } else {
            opts.paths.push_back(arg);
        }
    }
    if (!opts.listRules && opts.paths.empty()) {
        err << usage;
        return false;
    }
    for (const std::string &r : opts.rules)
        if (!checkRuleName(r, "--rules", err))
            return false;
    return true;
}

std::vector<std::string>
collectFiles(const std::vector<std::string> &paths, std::ostream &err,
             bool default_excludes)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::set<std::string> seen; // canonical identities
    auto wanted = [](const fs::path &p) {
        std::string ext = p.extension().string();
        return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
               ext == ".hpp" || ext == ".h";
    };
    auto add = [&](const fs::path &p) {
        // Dedupe by canonical path so overlapping directory
        // arguments (`htlint src src/mem`, absolute vs relative
        // spellings) scan each file exactly once; keep the first
        // spelling for display.
        std::error_code ec;
        fs::path canon = fs::weakly_canonical(p, ec);
        std::string key = ec ? p.lexically_normal().generic_string()
                             : canon.generic_string();
        if (seen.insert(key).second)
            files.push_back(p.lexically_normal().generic_string());
    };
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end;
                 !ec && it != end; it.increment(ec)) {
                if (default_excludes && it->is_directory(ec) &&
                    it->path().filename() == "fixtures") {
                    // Lint-fixture corpora contain deliberate
                    // violations; they are linted via loadText in
                    // the fixture tests, not from disk.
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file(ec) && wanted(it->path()))
                    add(it->path());
            }
        } else if (fs::is_regular_file(p, ec)) {
            add(fs::path(p));
        } else {
            err << "htlint: cannot read '" << p << "'\n";
            return {};
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

int
runHtlint(const Options &opts, std::ostream &out, std::ostream &err)
{
    if (opts.listRules) {
        for (const RuleInfo &r : allRules())
            out << r.name << "\n    " << r.description << "\n";
        return 0;
    }
    // Wall-clock is legal here (no-wallclock scopes to src/): the
    // --stats phase report is how CI proves the full-tree scan stays
    // fast as rules accumulate.
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    std::vector<std::string> files =
        collectFiles(opts.paths, err, opts.defaultExcludes);
    if (files.empty()) {
        err << "htlint: no input files\n";
        return 2;
    }
    const auto tCollect = Clock::now();

    // Load (lex + scope analysis) in parallel, then assemble the
    // project in deterministic file order.
    std::vector<std::unique_ptr<SourceFile>> loaded(files.size());
    int jobs = std::min<int>(opts.jobs,
                             static_cast<int>(files.size()));
    auto load_range = [&](std::size_t begin, std::size_t step) {
        for (std::size_t i = begin; i < files.size(); i += step) {
            auto f = std::make_unique<SourceFile>();
            if (f->load(files[i], files[i]))
                loaded[i] = std::move(f);
        }
    };
    if (jobs <= 1) {
        load_range(0, 1);
    } else {
        std::vector<std::thread> workers;
        for (int w = 0; w < jobs; ++w)
            workers.emplace_back(load_range,
                                 static_cast<std::size_t>(w),
                                 static_cast<std::size_t>(jobs));
        for (std::thread &w : workers)
            w.join();
    }
    const auto tLoad = Clock::now();

    Project proj;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (!loaded[i]) {
            err << "htlint: cannot read '" << files[i] << "'\n";
            return 2;
        }
        proj.addParsed(std::move(loaded[i]));
    }

    // Reject suppression comments naming unknown rules: a stale or
    // misspelled allow() hides nothing but looks like it does.
    bool bad_allow = false;
    for (const auto &f : proj.files()) {
        for (const SourceFile::AllowSite &site : f->allowSites()) {
            if (checkRuleName(site.rule,
                              (f->relPath() + ":" +
                               std::to_string(site.line) +
                               " allow() comment")
                                  .c_str(),
                              err))
                continue;
            bad_allow = true;
        }
    }
    if (bad_allow)
        return 2;

    if (opts.listSuppressions) {
        std::size_t n = 0;
        for (const auto &f : proj.files()) {
            for (const SourceFile::AllowSite &site :
                 f->allowSites()) {
                out << f->relPath() << ":" << site.line << ": "
                    << (site.fileWide ? "allow-file" : "allow")
                    << "(" << site.rule << ")\n";
                ++n;
            }
        }
        out << "htlint: " << n << " suppression(s) in "
            << files.size() << " files\n";
        return 0;
    }

    // Force the lazy phases individually so --stats attributes time
    // to index / callgraph / rules instead of lumping them together.
    proj.index();
    const auto tIndex = Clock::now();
    proj.callGraph();
    const auto tGraph = Clock::now();

    std::vector<Diagnostic> diags = proj.run(opts.rules);
    const auto tRules = Clock::now();

    if (opts.stats) {
        auto ms = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a)
                .count();
        };
        char buf[192];
        std::snprintf(
            buf, sizeof(buf),
            "htlint: --stats: collect %.1f ms, load %.1f ms, "
            "index %.1f ms, callgraph %.1f ms, rules %.1f ms, "
            "total %.1f ms (%zu files, jobs=%d)\n",
            ms(t0, tCollect), ms(tCollect, tLoad),
            ms(tLoad, tIndex), ms(tIndex, tGraph),
            ms(tGraph, tRules), ms(t0, tRules), files.size(),
            opts.jobs);
        err << buf;
    }

    if (opts.format == "sarif") {
        writeSarif(diags, out);
        return diags.empty() ? 0 : 1;
    }

    for (const Diagnostic &d : diags)
        out << d.file << ":" << d.line << ": [" << d.rule << "] "
            << d.message << "\n";
    if (diags.empty()) {
        out << "htlint: clean (" << files.size() << " files)\n";
        return 0;
    }
    out << "htlint: " << diags.size() << " violation(s) in "
        << files.size() << " files (suppress with "
           "'// htlint: allow(<rule>)')\n";
    return 1;
}

} // namespace hypertee::htlint
