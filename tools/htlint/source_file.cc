#include "tools/htlint/source_file.hh"

#include <fstream>
#include <sstream>

namespace hypertee::htlint
{

namespace
{

bool
isClassKeyword(const std::string &s)
{
    return s == "class" || s == "struct" || s == "union" ||
           s == "enum";
}

bool
isAccessKeyword(const std::string &s)
{
    return s == "public" || s == "protected" || s == "private" ||
           s == "virtual" || s == "final";
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

} // namespace

bool
SourceFile::load(const std::string &path, const std::string &rel_path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    loadText(ss.str(), rel_path);
    return true;
}

void
SourceFile::loadText(std::string text, const std::string &rel_path)
{
    _relPath = rel_path;
    _lexed = lex(text);
    analyze();
}

bool
SourceFile::isHeader() const
{
    auto ends_with = [&](const char *suf) {
        std::string s(suf);
        return _relPath.size() >= s.size() &&
               _relPath.compare(_relPath.size() - s.size(), s.size(),
                                s) == 0;
    };
    return ends_with(".hh") || ends_with(".hpp") || ends_with(".h");
}

void
SourceFile::analyze()
{
    buildBlocks();
    buildSuppressions();
}

void
SourceFile::classify(Block &b, std::size_t stmt_start,
                     std::size_t open_idx, int parent)
{
    const auto &toks = _lexed.tokens;

    // Gather the code tokens of the introducing statement.
    std::vector<std::size_t> stmt;
    for (std::size_t i = stmt_start; i < open_idx; ++i)
        if (!toks[i].inDirective)
            stmt.push_back(i);

    if (stmt.empty()) {
        // '{' directly after ';' '{' '}' or at file start: a nested
        // braced list inside an initializer, otherwise a bare block.
        b.kind = (parent >= 0 &&
                  (_blocks[static_cast<std::size_t>(parent)].kind ==
                       Block::Kind::Initializer ||
                   _blocks[static_cast<std::size_t>(parent)].kind ==
                       Block::Kind::Other))
                     ? Block::Kind::Initializer
                     : Block::Kind::Statement;
        return;
    }

    // A '{' inside a call's parentheses opens a lambda body or a
    // braced argument, never a function named after the call: the
    // lambda in `v.push_back([this] { flush(); })` is not push_back.
    if (toks[open_idx].parenDepth > 0) {
        b.kind = Block::Kind::Other;
        return;
    }

    const Token &first = toks[stmt[0]];
    if (first.kind == TokKind::Identifier) {
        if (first.text == "namespace") {
            b.kind = Block::Kind::Namespace;
            if (stmt.size() > 1 &&
                toks[stmt[1]].kind == TokKind::Identifier)
                b.name = toks[stmt[1]].text;
            return;
        }
        if (first.text == "do" || first.text == "else" ||
            first.text == "try") {
            b.kind = Block::Kind::Statement;
            return;
        }
        if (first.text == "extern") {
            b.kind = Block::Kind::Other;
            return;
        }
    }

    // Locate the first statement-level '(' and '=' and any class-key.
    std::size_t first_paren = stmt.size();
    std::size_t first_eq = stmt.size();
    std::size_t class_kw = stmt.size();
    for (std::size_t s = 0; s < stmt.size(); ++s) {
        const Token &t = toks[stmt[s]];
        if (t.kind == TokKind::Punct && t.text == "(" &&
            t.parenDepth == 1 && first_paren == stmt.size())
            first_paren = s;
        if (t.kind == TokKind::Punct && t.text == "=" &&
            t.parenDepth == 0 && first_eq == stmt.size())
            first_eq = s;
        if (t.kind == TokKind::Identifier && t.parenDepth == 0 &&
            isClassKeyword(t.text) && class_kw == stmt.size() &&
            first_paren == stmt.size())
            class_kw = s;
    }

    // `Foo x = { ... }` / `auto f = [..](..) { ... }`: not a scope the
    // rules care about, but functions may live deeper inside.
    if (first_eq < stmt.size() && first_eq < first_paren &&
        first_eq < class_kw) {
        b.kind = Block::Kind::Other;
        return;
    }

    if (class_kw < stmt.size()) {
        b.kind = Block::Kind::Type;
        // `enum class Name` puts the class-key closest to the name.
        std::size_t kw = class_kw;
        for (std::size_t s = kw + 1; s < stmt.size(); ++s)
            if (isClassKeyword(toks[stmt[s]].text))
                kw = s;
        std::size_t colon = stmt.size();
        for (std::size_t s = kw + 1; s < stmt.size(); ++s) {
            const Token &t = toks[stmt[s]];
            if (t.kind == TokKind::Identifier && b.name.empty())
                b.name = t.text;
            if (t.kind == TokKind::Punct && t.text == ":" &&
                t.parenDepth == 0) {
                colon = s;
                break;
            }
        }
        for (std::size_t s = colon + 1; s + 1 <= stmt.size() &&
                                        s < stmt.size();
             ++s) {
            const Token &t = toks[stmt[s]];
            if (t.kind != TokKind::Identifier ||
                isAccessKeyword(t.text))
                continue;
            // For qualified bases keep only the last component.
            if (s + 1 < stmt.size() &&
                toks[stmt[s + 1]].text == "::")
                continue;
            b.bases.push_back(t.text);
        }
        return;
    }

    if (first_paren < stmt.size() && first_paren > 0) {
        const Token &prev = toks[stmt[first_paren - 1]];
        if (prev.kind == TokKind::Identifier) {
            if (prev.text == "if" || prev.text == "for" ||
                prev.text == "while" || prev.text == "switch" ||
                prev.text == "catch") {
                b.kind = Block::Kind::Statement;
                return;
            }
            b.kind = Block::Kind::Function;
            b.name = prev.text;
            if (first_paren >= 3 &&
                toks[stmt[first_paren - 2]].text == "::" &&
                toks[stmt[first_paren - 3]].kind ==
                    TokKind::Identifier)
                b.className = toks[stmt[first_paren - 3]].text;
            return;
        }
        if (prev.kind == TokKind::Punct && prev.text == "]") {
            b.kind = Block::Kind::Other; // lambda
            return;
        }
        // `operator==(...)` and friends: the token(s) before '(' are
        // punctuation; look a few tokens back for `operator`.
        for (std::size_t back = 2; back <= 4 && back <= first_paren;
             ++back) {
            const Token &t = toks[stmt[first_paren - back]];
            if (t.kind == TokKind::Identifier &&
                t.text == "operator") {
                b.kind = Block::Kind::Function;
                b.name = "operator";
                return;
            }
        }
    }

    b.kind = Block::Kind::Other;
}

void
SourceFile::buildBlocks()
{
    const auto &toks = _lexed.tokens;
    std::vector<int> stack;
    std::size_t stmt_start = 0;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.inDirective)
            continue;
        if (t.kind != TokKind::Punct) {
            continue;
        }
        if (t.text == ";" && t.parenDepth == 0) {
            stmt_start = i + 1;
            continue;
        }
        if (t.text == "{") {
            Block b;
            b.stmtStart = stmt_start;
            b.open = i;
            b.close = toks.size() ? toks.size() - 1 : 0;
            b.parent = stack.empty() ? -1 : stack.back();
            classify(b, stmt_start, i, b.parent);
            if (b.kind == Block::Kind::Function &&
                b.className.empty() && b.parent >= 0) {
                const Block &p =
                    _blocks[static_cast<std::size_t>(b.parent)];
                if (p.kind == Block::Kind::Type)
                    b.className = p.name;
            }
            _blocks.push_back(std::move(b));
            stack.push_back(static_cast<int>(_blocks.size()) - 1);
            stmt_start = i + 1;
            continue;
        }
        if (t.text == "}") {
            if (!stack.empty()) {
                _blocks[static_cast<std::size_t>(stack.back())]
                    .close = i;
                stack.pop_back();
            }
            stmt_start = i + 1;
            continue;
        }
    }
}

void
SourceFile::buildSuppressions()
{
    for (const Comment &cm : _lexed.comments) {
        std::size_t at = cm.text.find("htlint:");
        if (at == std::string::npos)
            continue;
        std::size_t p = at + 7;
        while (p < cm.text.size() && cm.text[p] == ' ')
            ++p;
        bool file_wide = false;
        if (cm.text.compare(p, 10, "allow-file") == 0) {
            file_wide = true;
            p += 10;
        } else if (cm.text.compare(p, 5, "allow") == 0) {
            p += 5;
        } else {
            continue;
        }
        std::size_t lp = cm.text.find('(', p);
        std::size_t rp = cm.text.find(')', lp == std::string::npos
                                               ? p
                                               : lp);
        if (lp == std::string::npos || rp == std::string::npos)
            continue;
        std::string names = cm.text.substr(lp + 1, rp - lp - 1);
        std::size_t start = 0;
        while (start <= names.size()) {
            std::size_t comma = names.find(',', start);
            std::string name = trim(
                comma == std::string::npos
                    ? names.substr(start)
                    : names.substr(start, comma - start));
            if (!name.empty()) {
                _allowSites.push_back({cm.line, name, file_wide});
                if (file_wide) {
                    _allowFile.insert(name);
                } else {
                    _allow[cm.line].insert(name);
                    if (cm.ownLine)
                        _allow[cm.endLine + 1].insert(name);
                }
            }
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }
}

int
SourceFile::enclosingBlock(std::size_t tok_idx) const
{
    int best = -1;
    for (std::size_t b = 0; b < _blocks.size(); ++b) {
        if (_blocks[b].open < tok_idx && tok_idx < _blocks[b].close) {
            if (best < 0 ||
                _blocks[b].open >
                    _blocks[static_cast<std::size_t>(best)].open)
                best = static_cast<int>(b);
        }
    }
    return best;
}

int
SourceFile::enclosingFunction(std::size_t tok_idx) const
{
    int b = enclosingBlock(tok_idx);
    while (b >= 0) {
        const Block &blk = _blocks[static_cast<std::size_t>(b)];
        if (blk.kind == Block::Kind::Function)
            return b;
        if (blk.kind == Block::Kind::Type ||
            blk.kind == Block::Kind::Namespace)
            return -1;
        b = blk.parent;
    }
    return -1;
}

bool
SourceFile::declaresFunction(std::size_t name_idx) const
{
    const auto &toks = tokens();
    const std::size_t open = name_idx + 1;
    if (open >= toks.size() || toks[open].text != "(" ||
        enclosingFunction(name_idx) >= 0)
        return false;
    const int depth = toks[open].parenDepth;
    std::size_t close = open + 1;
    while (close < toks.size() &&
           !(toks[close].text == ")" && toks[close].parenDepth == depth))
        ++close;
    if (close == open + 1 || close + 1 >= toks.size() ||
        (toks[close + 1].text != ";" && toks[close + 1].text != ","))
        return true; // `T f()`, or a body/qualifier/`= default` follows
    static const std::set<std::string> builtin = {
        "void", "bool",   "char",  "int",    "long", "short",
        "auto", "signed", "float", "double", "unsigned"};
    for (std::size_t k = open + 1; k < close; ++k) {
        const Token &t = toks[k];
        const Token &next = toks[k + 1];
        const bool ends = next.text == "," || next.text == ")";
        if (t.parenDepth == depth &&
            ((t.kind == TokKind::Identifier &&
              (next.kind == TokKind::Identifier ||
               (ends && builtin.count(t.text)))) ||
             (ends && (t.text == "&" || t.text == "*"))))
            return true; // `Tick t`, `int`, `Foo &`
    }
    return false;
}

bool
SourceFile::suppressed(const std::string &rule, int line) const
{
    if (_allowFile.count(rule))
        return true;
    auto it = _allow.find(line);
    return it != _allow.end() && it->second.count(rule) > 0;
}

} // namespace hypertee::htlint
