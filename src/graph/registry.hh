/**
 * @file
 * Dataset registry: the paper's Table 1 metadata plus scaled synthetic
 * twins that this offline reproduction materialises in place of the real
 * downloads (README "Synthetic twins" holds the substitution argument).
 *
 * Twin scaling rule: preserve the paper's average degree exactly, cap the
 * node count so that nnz stays below a simulation budget, and generate a
 * power-law (RMAT) structure for kernel benches or a planted-partition
 * (SBM) structure for training benches that need labels.
 */

#ifndef MAXK_GRAPH_REGISTRY_HH
#define MAXK_GRAPH_REGISTRY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "graph/csr.hh"
#include "graph/generators.hh"
#include "tensor/matrix.hh"

namespace maxk
{

/** Structural family used for a dataset twin. */
enum class GraphKind { PowerLaw, Community, Mesh };

/** Registry entry: paper-published size plus twin parameters. */
struct DatasetInfo
{
    std::string name;          //!< paper dataset name (Table 1)
    std::uint64_t paperNodes;  //!< |V| reported in Table 1
    std::uint64_t paperEdges;  //!< |E| reported in Table 1
    GraphKind kind;            //!< twin structure family

    NodeId twinNodes;          //!< nodes in the synthetic twin
    EdgeId twinEdges;          //!< approximate nnz in the twin

    /**
     * Explicit on-disk graph file for this entry (any format
     * formats::loadAnyGraph speaks). Empty = resolve via the
     * MAXK_DATASET_DIR environment directory, falling back to the
     * synthetic twin when nothing is found.
     */
    std::string onDiskPath;

    double paperAvgDegree() const
    {
        return paperNodes ? static_cast<double>(paperEdges) / paperNodes
                          : 0.0;
    }
};

/** Metric reported for a training task (Table 5 columns). */
enum class MetricKind { Accuracy, MicroF1, RocAuc };

const char *metricName(MetricKind m);

/** Training-task description for the five system-evaluation datasets. */
struct TrainingTask
{
    DatasetInfo info;
    std::uint32_t numClasses;   //!< label classes (or label bits)
    std::uint32_t featureDim;   //!< input feature dimension
    bool multiLabel;            //!< BCE multi-label (Yelp, proteins twins)
    MetricKind metric;          //!< headline metric for this dataset
    double featureNoise;        //!< feature corruption level (task difficulty)
    double intraEdgeFraction;   //!< SBM homophily

    /**
     * Accuracy-twin scale. Accuracy experiments run on a smaller graph
     * than the kernel-timing twins (README "Synthetic twins": timing
     * depends on structural scale, accuracy only on task
     * learnability), so the training twin caps nodes/degree further.
     */
    NodeId accuracyNodes;
    double accuracyAvgDegree;
};

/** All 24 Table-1 graphs in paper order. */
const std::vector<DatasetInfo> &kernelSuite();

/** Look up a kernel-suite entry by name; nullopt if unknown. */
std::optional<DatasetInfo> findDataset(const std::string &name);

/** The five system-evaluation datasets of Table 3 / Fig. 9 / Table 5. */
const std::vector<TrainingTask> &trainingSuite();

/** Look up a training task by dataset name. */
std::optional<TrainingTask> findTrainingTask(const std::string &name);

/** Environment variable naming the real-dataset directory. */
inline constexpr const char *kDatasetDirEnv = "MAXK_DATASET_DIR";

/**
 * Search $MAXK_DATASET_DIR for `<name>.<ext>` over the known graph
 * extensions (.maxkb first — the fast container wins — then .csr,
 * .maxkcsr, .txt, .tsv, .el, .edges). nullopt when the variable is
 * unset or nothing matches.
 */
std::optional<std::string> resolveDatasetFile(const std::string &name);

/**
 * The on-disk source an entry will actually load from: its explicit
 * onDiskPath if set, else the environment search. nullopt = synthetic
 * twin.
 */
std::optional<std::string> resolveDatasetSource(const DatasetInfo &info);

/**
 * Resolve once and pin the result on the entry (onDiskPath), so a
 * caller's "came from disk" label and the graph materializeGraph
 * actually loads cannot diverge across two filesystem probes. Returns
 * the pinned source, nullopt for a synthetic twin.
 */
std::optional<std::string> pinResolvedSource(DatasetInfo &info);

/**
 * Materialise the graph for a registry entry: the resolved on-disk
 * dataset when one exists (fatal() on malformed files — a resolved
 * path that does not parse is a configuration error, not a recoverable
 * condition), otherwise the synthetic twin.
 */
CsrGraph materializeGraph(const DatasetInfo &info, Rng &rng);

/**
 * Materialise a labelled training twin: SBM graph + labels + features.
 * Features are noisy one-hot community indicators lifted to featureDim via
 * a fixed random projection, so the task is learnable but not trivial.
 */
struct TrainingData
{
    CsrGraph graph;
    Matrix features;                        //!< N x featureDim inputs
    std::vector<std::uint32_t> labels;      //!< one label per node
    std::vector<std::uint8_t> trainMask;    //!< 1 = training node
    std::vector<std::uint8_t> valMask;
    std::vector<std::uint8_t> testMask;
};
TrainingData materializeTrainingData(const TrainingTask &task, Rng &rng);

} // namespace maxk

#endif // MAXK_GRAPH_REGISTRY_HH
