#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "nn/loss.hh"

namespace hostbench
{

using namespace maxk;

TrainingTask
redditTask(bool tiny)
{
    TrainingTask task = *findTrainingTask("Reddit");
    task.accuracyNodes = tiny ? 256 : 4096;
    task.accuracyAvgDegree = tiny ? 12.0 : 100.0;
    return task;
}

TrainingTask
flickrTask(bool tiny)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = tiny ? 512 : 8192;
    task.accuracyAvgDegree = task.info.paperAvgDegree();
    return task;
}

std::uint32_t
setupRepeats(const RunOptions &opt)
{
    return opt.tiny ? 2 : 5;
}

std::uint32_t
unitsFor(const RunOptions &opt, double per_second, std::uint32_t floor)
{
    const double n = std::round(opt.seconds * per_second);
    return std::max<std::uint32_t>(floor, static_cast<std::uint32_t>(n));
}

std::string
checkpointDir(const RunOptions &opt, const std::string &tag)
{
    const std::string dir = opt.outDir + "/ckpt-" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
copyDir(const std::string &from, const std::string &to)
{
    std::filesystem::remove_all(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

NnSpans::NnSpans(Tracer &t, std::uint32_t layers)
{
    const auto name = [](std::uint32_t l, const char *phase) {
        return "nn.layer" + std::to_string(l) + "." + phase;
    };
    for (std::uint32_t l = 0; l < layers; ++l) {
        fwdCompute.push_back(t.intern(name(l, "fwd_compute")));
        fwdCombine.push_back(t.intern(name(l, "fwd_combine")));
        bwdAgg.push_back(t.intern(name(l, "bwd_agg")));
        bwdPost.push_back(t.intern(name(l, "bwd_post")));
    }
    loss = t.intern("nn.loss");
    adam = t.intern("nn.adam");
    eval = t.intern("nn.eval");
}

std::vector<std::pair<std::string, std::vector<std::string>>>
nnGroups(std::uint32_t layers)
{
    std::vector<std::pair<std::string, std::vector<std::string>>> g;
    for (const char *phase :
         {"fwd_compute", "fwd_combine", "bwd_agg", "bwd_post"}) {
        std::vector<std::string> all;
        for (std::uint32_t l = 0; l < layers; ++l) {
            const std::string span =
                "nn.layer" + std::to_string(l) + "." + phase;
            g.push_back({span + "_ms", {span}});
            all.push_back(span);
        }
        g.push_back({std::string("nn.") + phase + "_ms", all});
    }
    for (const char *other : {"loss", "adam", "eval"})
        g.push_back({std::string("nn.") + other + "_ms",
                     {std::string("nn.") + other}});
    return g;
}

TracedStep::TracedStep(nn::GnnModel &model, Tracer &tracer)
    : model_(model), tracer_(tracer),
      spans_(tracer, static_cast<std::uint32_t>(model.layers().size()))
{
}

const Matrix &
TracedStep::forward(const CsrGraph &a, const Matrix &x, bool training,
                    std::uint32_t unit)
{
    auto &layers = model_.layers();
    acts_.resize(layers.size());
    const Matrix *in = &x;
    for (std::size_t l = 0; l < layers.size(); ++l) {
        {
            Scope s(&tracer_, 0, spans_.fwdCompute[l], unit);
            layers[l].forwardCompute(*in, training, model_.dropoutRng());
        }
        {
            Scope s(&tracer_, 0, spans_.fwdCombine[l], unit);
            layers[l].forwardCombine(a, acts_[l]);
        }
        in = &acts_[l];
    }
    return acts_.back();
}

void
TracedStep::backward(const CsrGraph &a, const Matrix &grad,
                     std::uint32_t unit)
{
    auto &layers = model_.layers();
    const Matrix *upstream = &grad;
    for (std::size_t l = layers.size(); l-- > 0;) {
        {
            Scope s(&tracer_, 0, spans_.bwdAgg[l], unit);
            layers[l].backwardAgg(a, *upstream);
        }
        {
            Scope s(&tracer_, 0, spans_.bwdPost[l], unit);
            layers[l].backwardPost(a, *upstream, gradPrev_);
        }
        std::swap(gradCur_, gradPrev_);
        upstream = &gradCur_;
    }
}

double
TracedStep::train(const CsrGraph &a, const Matrix &x,
                  const std::vector<std::uint32_t> &labels,
                  const std::vector<std::uint8_t> &mask, nn::Adam &adam,
                  std::uint32_t unit)
{
    const Matrix &logits = forward(a, x, true, unit);
    double loss = 0.0;
    {
        Scope s(&tracer_, 0, spans_.loss, unit);
        loss = nn::softmaxCrossEntropyInto(logits, labels, mask, 0, grad_,
                                           probs_);
    }
    backward(a, grad_, unit);
    {
        Scope s(&tracer_, 0, spans_.adam, unit);
        adam.step();
    }
    return loss;
}

void
checkLosses(Report &rep, const std::vector<double> &losses,
            bool require_decrease)
{
    std::size_t bad = 0;
    for (double l : losses)
        bad += std::isfinite(l) ? 0 : 1;
    rep.check(!losses.empty(), "no epoch reported a loss");
    rep.failed += bad;
    rep.check(bad == 0, std::to_string(bad) + " non-finite epoch losses");
    if (require_decrease && losses.size() >= 2)
        rep.check(losses.back() < losses.front(),
                  "last loss " + std::to_string(losses.back()) +
                      " not below first " + std::to_string(losses.front()));
}

void
setGpusimBuckets(Report &rep, const nn::EpochTiming &t)
{
    rep.set("gpusim.agg_fwd_ms", t.aggFwd * 1e3, "sim_ms");
    rep.set("gpusim.agg_bwd_ms", t.aggBwd * 1e3, "sim_ms");
    rep.set("gpusim.linear_ms", t.linear * 1e3, "sim_ms");
    rep.set("gpusim.nonlin_ms", t.nonlin * 1e3, "sim_ms");
    rep.set("gpusim.other_ms", t.other * 1e3, "sim_ms");
    rep.set("gpusim.epoch_ms", t.total() * 1e3, "sim_ms");
}

void
setTraceMetrics(Report &rep, const TraceSummary &sum,
                double traced_unit_ms, double untraced_unit_ms)
{
    for (const auto &[name, ms] : sum.ms)
        rep.set(name, ms, "ms");
    rep.set("trace.unit_ms", traced_unit_ms, "ms");
    rep.set("trace.coverage", sum.coverage, "ratio");
    rep.set("trace.traced_over_untraced",
            untraced_unit_ms > 0.0 ? traced_unit_ms / untraced_unit_ms : 0.0,
            "x");
}

void
writeTrace(const Tracer &t, const RunOptions &opt, Report &rep)
{
    const std::string path = opt.outDir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    rep.check(t.writeChromeTrace(path), "cannot write " + path);
}

} // namespace hostbench
