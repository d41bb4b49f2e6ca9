/**
 * @file
 * solvebench: one workload run of the solve-path benchmark.
 *
 *   solvebench --workload <solve-cold|solve-warm-deep|serve-remote>
 *              --seed <n> --seconds <s> --trace <0|1>
 *              [--tiny] [--tamper] [--out-dir <dir>]
 *
 * Prints a human-readable report, then as its last line one JSON object
 * with `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
 * untraced, per-layer metrics traced). Exits 1 when a correctness check
 * failed, 2 on bad usage.
 */
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "workloads.h"

namespace {

void
usage(const std::string& why)
{
    std::cerr << "solvebench: " << why
              << "\nusage: solvebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--tamper] "
                 "[--out-dir <dir>]\n";
    std::exit(2);
}

solvebench::Options
parse(int argc, char** argv)
{
    solvebench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                opts.workload = value();
            else if (flag == "--seed")
                opts.seed = std::stoull(value());
            else if (flag == "--seconds")
                opts.seconds = std::stod(value());
            else if (flag == "--trace")
                opts.trace = std::stoi(value()) != 0;
            else if (flag == "--out-dir")
                opts.out_dir = value();
            else if (flag == "--tiny")
                opts.tiny = true;
            else if (flag == "--tamper")
                opts.tamper = true;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

/** JSON number with every digit a double carries. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream out;
    out << std::setprecision(17) << v;
    return out.str();
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opts = parse(argc, argv);
    solvebench::RunOutcome outcome;
    try {
        outcome = solvebench::run_workload(opts);
    } catch (const std::exception& e) {
        std::cerr << "solvebench: " << e.what() << "\n";
        return 2;
    }
    std::ostringstream json;
    json << "{\"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const auto& m = outcome.metrics[i];
        json << (i ? ", " : "") << "\"" << m.name
             << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
             << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return outcome.correct ? 0 : 1;
}
