/**
 * @file
 * File collection and the command-line entry point, separated from
 * main() so the fixture tests can drive the linter in-process.
 */

#ifndef HYPERTEE_TOOLS_HTLINT_DRIVER_HH
#define HYPERTEE_TOOLS_HTLINT_DRIVER_HH

#include <ostream>
#include <string>
#include <vector>

#include "tools/htlint/rules.hh"

namespace hypertee::htlint
{

struct Options
{
    /** Rules to run; empty = all. */
    std::set<std::string> rules;
    /** Directories/files to scan, relative to the working dir. */
    std::vector<std::string> paths;
    bool listRules = false;
    /** Print every allow()/allow-file() suppression and exit. */
    bool listSuppressions = false;
    /** "text" (default) or "sarif" (SARIF 2.1.0 on stdout). */
    std::string format = "text";
    /** Parallel file-loading threads; 1 = serial. */
    int jobs = 1;
    /** Print per-phase wall times (collect/load/index/callgraph/
     *  analyze) to stderr after the scan. */
    bool stats = false;
    /** Skip directories named "fixtures" (lint-fixture corpora). */
    bool defaultExcludes = true;
};

/** Parse argv; returns false (and explains on @p err) on bad usage. */
bool parseArgs(int argc, const char *const *argv, Options &opts,
               std::ostream &err);

/**
 * Recursively collect .cc/.hh/.cpp/.hpp/.h files under each of
 * @p paths (files are taken as-is), sorted for deterministic output.
 * Overlapping arguments (`htlint src src/mem`) are deduped by
 * canonical path, so every file is scanned exactly once. Directories
 * named "fixtures" are skipped unless @p default_excludes is false.
 */
std::vector<std::string>
collectFiles(const std::vector<std::string> &paths, std::ostream &err,
             bool default_excludes = true);

/**
 * The closest rule name to @p name by edit distance, for "did you
 * mean" hints; "" when nothing is plausibly close.
 */
std::string closestRuleName(const std::string &name);

/**
 * Run the linter: load every file, run the selected rules, print
 * diagnostics to @p out. Returns the process exit code: 0 clean,
 * 1 violations found, 2 usage/IO error (including suppression
 * comments that name unknown rules).
 */
int runHtlint(const Options &opts, std::ostream &out,
              std::ostream &err);

} // namespace hypertee::htlint

#endif // HYPERTEE_TOOLS_HTLINT_DRIVER_HH
