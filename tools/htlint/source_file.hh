/**
 * @file
 * A lexed source file plus the lightweight structure htlint rules
 * need: a block (scope) tree classifying every brace pair as a
 * namespace / type / function / statement / initializer, and the
 * suppression map parsed from the `htlint:` allow-comments
 * (`allow(rule)` trailing a line or on the line above it).
 */

#ifndef HYPERTEE_TOOLS_HTLINT_SOURCE_FILE_HH
#define HYPERTEE_TOOLS_HTLINT_SOURCE_FILE_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/htlint/lexer.hh"

namespace hypertee::htlint
{

/** One classified brace scope. */
struct Block
{
    enum class Kind
    {
        Namespace,
        Type,        ///< class/struct/union/enum body
        Function,    ///< function (or method/constructor) body
        Statement,   ///< if/for/while/switch/do/else/try/bare block
        Initializer, ///< braced init list
        Other,       ///< lambdas, extern "C", anything unrecognized
    };

    Kind kind = Kind::Other;
    std::string name;      ///< function/type/namespace name ("" if none)
    std::string className; ///< for functions: qualifying or enclosing type
    std::vector<std::string> bases; ///< for types: base class names
    std::size_t stmtStart = 0; ///< first token of the introducing stmt
    std::size_t open = 0;  ///< token index of '{'
    std::size_t close = 0; ///< token index of matching '}'
    int parent = -1;       ///< index into blocks(), -1 at file scope
};

class SourceFile
{
  public:
    /**
     * Load and analyze @p path. @p rel_path is the project-relative
     * path rules scope on (e.g. "src/mem/tlb.cc"); diagnostics are
     * reported against it. Returns false when the file is unreadable.
     */
    bool load(const std::string &path, const std::string &rel_path);

    /** Analyze in-memory text (fixture tests). */
    void loadText(std::string text, const std::string &rel_path);

    const std::string &relPath() const { return _relPath; }
    bool isHeader() const;

    const std::vector<Token> &tokens() const { return _lexed.tokens; }
    const std::vector<Comment> &comments() const
    {
        return _lexed.comments;
    }
    const std::vector<Block> &blocks() const { return _blocks; }

    /** Innermost block containing token @p tok_idx; -1 = file scope. */
    int enclosingBlock(std::size_t tok_idx) const;

    /**
     * Innermost Function block containing @p tok_idx, walking up
     * through statement/lambda blocks; -1 when not inside one.
     */
    int enclosingFunction(std::size_t tok_idx) const;

    /**
     * Does the identifier at @p name_idx, followed by '(', name a
     * function rather than a paren-initialized variable? In a function
     * body it never does (`Random r(seed);`); elsewhere a variable
     * needs arguments (`Random g(42);`), not parameters (`(Tick t)`,
     * `(int)`, `(Foo &)`, `()`), and a following ';' or ','.
     */
    bool declaresFunction(std::size_t name_idx) const;

    /** Is @p rule suppressed at @p line by an allow comment? */
    bool suppressed(const std::string &rule, int line) const;

    /**
     * One rule name inside an `allow(...)`/`allow-file(...)` comment,
     * kept for auditing (`--list-suppressions`) and for rejecting
     * stale suppressions that name unknown rules.
     */
    struct AllowSite
    {
        int line = 0; ///< line of the comment itself
        std::string rule;
        bool fileWide = false;
    };
    const std::vector<AllowSite> &allowSites() const
    {
        return _allowSites;
    }

  private:
    void analyze();
    void buildBlocks();
    void buildSuppressions();
    void classify(Block &b, std::size_t stmt_start,
                  std::size_t open_idx, int parent);

    std::string _relPath;
    LexedFile _lexed;
    std::vector<Block> _blocks;
    /** line -> rules allowed on that line. */
    std::map<int, std::set<std::string>> _allow;
    /** rules allowed for the whole file. */
    std::set<std::string> _allowFile;
    /** every allow/allow-file mention, in source order. */
    std::vector<AllowSite> _allowSites;
};

} // namespace hypertee::htlint

#endif // HYPERTEE_TOOLS_HTLINT_SOURCE_FILE_HH
