/**
 * @file
 * maxk-kernels: inspect the SpMM kernel registry and the adaptive
 * selector from the command line.
 *
 *   maxk-kernels list                       # enumerate registered variants
 *   maxk-kernels select reddit.maxkb        # decision for a graph file
 *   maxk-kernels select reddit.maxkb --dim 256 --k 32
 *
 * `select` loads the graph (format auto-sniffed, same ingest path as
 * maxk-convert), prints the feature vector the selector reads, and the
 * variant it picks with its justification — the same decision
 * kernels::resolveSpmmVariant("auto", ...) makes for a simulated
 * launch.
 *
 * Exit status: 0 success, 1 I/O or format error, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gpusim/device.hh"
#include "graph/formats/formats.hh"
#include "graph/stats.hh"
#include "kernels/registry.hh"
#include "kernels/selector.hh"

using namespace maxk;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s list\n"
        "       %s select <graph> [--dim N] [--k N] [--symmetrize]\n"
        "\n"
        "list    print every registered SpMM variant\n"
        "select  load <graph> (edge list, text CSR, or .maxkb; format\n"
        "        sniffed) and print the degree features plus the kernel\n"
        "        the adaptive selector picks for that launch shape\n"
        "\n"
        "options:\n"
        "  --dim N       dense feature width of the launch (default 64)\n"
        "  --k N         MaxK width; 0 means dense operand (default 0)\n"
        "  --symmetrize  insert the reverse of every edge after load\n",
        argv0, argv0);
    return 2;
}

int
runList()
{
    std::printf("%-18s %-4s %-5s %-6s %s\n", "name", "sim", "shape",
                "select", "summary");
    for (const kernels::KernelVariant &v : kernels::kernelRegistry())
        std::printf("%-18s %-4s %-5s %-6s %s\n",
                    std::string(v.name).c_str(), v.simulated ? "yes" : "no",
                    v.transposed ? "A^T" : "A", v.selectable ? "yes" : "no",
                    std::string(v.summary).c_str());
    return 0;
}

int
runSelect(const std::string &path, std::size_t dim, std::uint32_t k,
          bool symmetrize, const char *argv0)
{
    GraphResult loaded = formats::loadAnyGraph(path);
    if (!loaded) {
        std::fprintf(stderr, "%s: %s\n", argv0,
                     loaded.error().describe().c_str());
        return 1;
    }
    CsrGraph g = std::move(loaded.value());
    if (symmetrize)
        g = formats::symmetrized(g);

    const DegreeStats &s = g.degreeStatsCached();
    const double cv = s.avgDegree > 0.0 ? s.stdDegree / s.avgDegree : 0.0;
    const auto dev = gpusim::DeviceConfig::a100();
    const kernels::KernelChoice choice =
        kernels::selectSpmmVariant(s, dim, k, dev);

    std::printf("graph:    %s\n", path.c_str());
    std::printf("features: %s\n", describe(s).c_str());
    std::printf("          cv=%.3f (stdDegree/avgDegree)\n", cv);
    std::printf("launch:   dim=%zu k=%u device=%s\n", dim, k,
                dev.name.c_str());
    std::printf("decision: %s\n",
                std::string(choice.variant->name).c_str());
    std::printf("reason:   %s\n", choice.reason.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage(argv[0]);
        return 0;
    }
    if (cmd == "list") {
        if (argc != 2)
            return usage(argv[0]);
        return runList();
    }
    if (cmd != "select")
        return usage(argv[0]);

    std::string input;
    std::size_t dim = 64;
    std::uint32_t k = 0;
    bool symmetrize = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_number = [&](const char *flag,
                               unsigned long long max) -> long long {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s requires an argument\n",
                             argv[0], flag);
                return -1;
            }
            const char *v = argv[++i];
            char *end = nullptr;
            const unsigned long long n = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || n > max) {
                std::fprintf(stderr, "%s: bad %s '%s'\n", argv[0], flag, v);
                return -1;
            }
            return static_cast<long long>(n);
        };
        if (arg == "--dim") {
            const long long n = next_number("--dim", 1u << 20);
            if (n <= 0)
                return 2;
            dim = static_cast<std::size_t>(n);
        } else if (arg == "--k") {
            const long long n = next_number("--k", 1u << 20);
            if (n < 0)
                return 2;
            k = static_cast<std::uint32_t>(n);
        } else if (arg == "--symmetrize") {
            symmetrize = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            return 2;
        } else if (input.empty()) {
            input = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (input.empty())
        return usage(argv[0]);
    return runSelect(input, dim, k, symmetrize, argv[0]);
}
