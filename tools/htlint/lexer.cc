#include "tools/htlint/lexer.hh"

#include <cctype>

namespace hypertee::htlint
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c));
}

} // namespace

LexedFile
lex(const std::string &text)
{
    LexedFile out;
    const std::size_t n = text.size();
    std::size_t i = 0;
    int line = 1;
    int parenDepth = 0;
    int braceDepth = 0;
    bool inDirective = false;
    // True until a non-whitespace, non-comment char is seen on the
    // current line; a '#' here starts a preprocessor directive and a
    // comment here is an own-line comment.
    bool atLineStart = true;

    auto push = [&](TokKind kind, std::string tok_text, int tok_line) {
        Token t;
        t.kind = kind;
        t.text = std::move(tok_text);
        t.line = tok_line;
        t.inDirective = inDirective;
        t.parenDepth = parenDepth;
        t.braceDepth = braceDepth;
        out.tokens.push_back(std::move(t));
    };

    while (i < n) {
        char c = text[i];

        if (c == '\n') {
            // A directive ends at an unescaped newline; the escape is
            // consumed below before we ever see the newline here.
            inDirective = false;
            atLineStart = true;
            ++line;
            ++i;
            continue;
        }
        if (c == '\\' && i + 1 < n && text[i + 1] == '\n') {
            ++line;
            i += 2;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\f' ||
            c == '\v') {
            ++i;
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            Comment cm;
            cm.line = line;
            cm.endLine = line;
            cm.ownLine = atLineStart;
            i += 2;
            while (i < n && text[i] != '\n')
                cm.text.push_back(text[i++]);
            out.comments.push_back(std::move(cm));
            continue;
        }
        // Block comment.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            Comment cm;
            cm.line = line;
            cm.ownLine = atLineStart;
            i += 2;
            while (i + 1 < n &&
                   !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n')
                    ++line;
                cm.text.push_back(text[i++]);
            }
            i += (i + 1 < n) ? 2 : 1;
            cm.endLine = line;
            out.comments.push_back(std::move(cm));
            continue;
        }

        // Preprocessor directive start.
        if (c == '#' && atLineStart) {
            inDirective = true;
            atLineStart = false;
            push(TokKind::Punct, "#", line);
            ++i;
            continue;
        }
        atLineStart = false;

        // Raw string literal R"tag(...)tag".
        if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
            std::size_t tag_start = i + 2;
            std::size_t p = tag_start;
            while (p < n && text[p] != '(' && text[p] != '\n')
                ++p;
            if (p < n && text[p] == '(') {
                std::string close;
                close.reserve(p - tag_start + 2);
                close.append(1, ')')
                    .append(text, tag_start, p - tag_start)
                    .append(1, '"');
                std::size_t body = p + 1;
                std::size_t end = text.find(close, body);
                if (end == std::string::npos)
                    end = n;
                int start_line = line;
                for (std::size_t q = i; q < end && q < n; ++q)
                    if (text[q] == '\n')
                        ++line;
                push(TokKind::String,
                     text.substr(i, std::min(end + close.size(), n) - i),
                     start_line);
                i = std::min(end + close.size(), n);
                continue;
            }
        }

        // String / char literal.
        if (c == '"' || c == '\'') {
            // '\'' after an identifier/digit inside a number is
            // handled by the number path below, so a quote here is a
            // real literal.
            char quote = c;
            std::string lit(1, quote);
            ++i;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\' && i + 1 < n) {
                    lit.push_back(text[i]);
                    lit.push_back(text[i + 1]);
                    if (text[i + 1] == '\n')
                        ++line;
                    i += 2;
                    continue;
                }
                if (text[i] == '\n') {
                    ++line; // unterminated; recover at newline
                    break;
                }
                lit.push_back(text[i++]);
            }
            if (i < n && text[i] == quote) {
                lit.push_back(quote);
                ++i;
            }
            push(quote == '"' ? TokKind::String : TokKind::CharLit,
                 std::move(lit), line);
            continue;
        }

        // Number (handles 0x1F, 1'000'000, 1e-5, 1.5f).
        if (isDigit(c) ||
            (c == '.' && i + 1 < n && isDigit(text[i + 1]))) {
            std::string num;
            while (i < n) {
                char d = text[i];
                if (isIdentChar(d) || d == '.' || d == '\'') {
                    num.push_back(d);
                    ++i;
                    continue;
                }
                if ((d == '+' || d == '-') && !num.empty()) {
                    char prev = num.back();
                    if (prev == 'e' || prev == 'E' || prev == 'p' ||
                        prev == 'P') {
                        num.push_back(d);
                        ++i;
                        continue;
                    }
                }
                break;
            }
            push(TokKind::Number, std::move(num), line);
            continue;
        }

        // Identifier.
        if (isIdentStart(c)) {
            std::string id;
            while (i < n && isIdentChar(text[i]))
                id.push_back(text[i++]);
            push(TokKind::Identifier, std::move(id), line);
            continue;
        }

        // Punctuation. '::' and '->' are kept whole; depth counters
        // are updated for code (not directive) tokens.
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            push(TokKind::Punct, "::", line);
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && text[i + 1] == '>') {
            push(TokKind::Punct, "->", line);
            i += 2;
            continue;
        }
        if (!inDirective) {
            if (c == '(')
                ++parenDepth;
            else if (c == '{')
                ++braceDepth;
        }
        push(TokKind::Punct, std::string(1, c), line);
        if (!inDirective) {
            if (c == ')' && parenDepth > 0)
                --parenDepth;
            else if (c == '}' && braceDepth > 0)
                --braceDepth;
        }
        ++i;
    }
    return out;
}

} // namespace hypertee::htlint
