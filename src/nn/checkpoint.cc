#include "nn/checkpoint.hh"

namespace maxk::nn
{

void
writeModelState(formats::Checkpoint &ck, GnnModel &model,
                const Adam &adam)
{
    const ParamRefs params = model.params();
    ck.setU64("param.count", params.size());
    std::vector<std::uint64_t> shapes;
    shapes.reserve(params.size() * 2);
    for (const Param *p : params) {
        shapes.push_back(p->value.rows());
        shapes.push_back(p->value.cols());
    }
    ck.setU64s("param.shape", shapes);
    for (std::size_t i = 0; i < params.size(); ++i) {
        ck.setMatrix("param." + std::to_string(i), params[i]->value);
        ck.setMatrix("adam.m." + std::to_string(i),
                     adam.firstMoments()[i]);
        ck.setMatrix("adam.v." + std::to_string(i),
                     adam.secondMoments()[i]);
    }
    ck.setU64("adam.t", adam.stepCount());

    std::uint64_t words[4];
    model.dropoutRng().stateWords(words);
    ck.setU64s("rng.drop", {words[0], words[1], words[2], words[3]});
}

Expected<std::monostate, IoError>
checkModelState(const formats::Checkpoint &ck, GnnModel &model)
{
    const ParamRefs params = model.params();

    auto count = ck.getU64("param.count");
    if (!count)
        return unexpected(std::move(count.error()));
    if (count.value() != params.size())
        return unexpected(IoError{
            IoErrorCode::CountMismatch, "", 0,
            "checkpoint holds " + std::to_string(count.value()) +
                " parameter tensors but the model has " +
                std::to_string(params.size())});

    if (auto ok = ck.checkU64s("param.shape", params.size() * 2); !ok)
        return ok;
    const std::vector<std::uint64_t> shapes =
        ck.getU64s("param.shape").value();
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::pair<std::uint64_t, std::uint64_t> want{
            params[i]->value.rows(), params[i]->value.cols()};
        bool same = shapes[2 * i] == want.first &&
                    shapes[2 * i + 1] == want.second;
        for (const char *prefix : {"param.", "adam.m.", "adam.v."}) {
            auto shape = ck.matrixShape(prefix + std::to_string(i));
            if (!shape)
                return unexpected(std::move(shape.error()));
            same = same && shape.value() == want;
        }
        if (!same)
            return unexpected(IoError{
                IoErrorCode::CountMismatch, "", 0,
                "checkpoint parameter " + std::to_string(i) + " ('" +
                    params[i]->name +
                    "') was written with a different shape — the "
                    "checkpoint belongs to a different model "
                    "configuration"});
    }
    if (auto t = ck.getU64("adam.t"); !t)
        return unexpected(std::move(t.error()));
    return ck.checkU64s("rng.drop", 4);
}

Expected<std::monostate, IoError>
readModelState(const formats::Checkpoint &ck, GnnModel &model,
               Adam &adam)
{
    if (auto ok = checkModelState(ck, model); !ok)
        return ok;
    // Every section checked; restore in place. Moments go through
    // temporary matrices because Adam owns its state (resume is a
    // one-time path; the per-epoch save path is the allocation-free
    // one).
    const ParamRefs params = model.params();
    std::vector<Matrix> m(params.size()), v(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::string idx = std::to_string(i);
        ck.getMatrix("param." + idx, params[i]->value);
        ck.getMatrix("adam.m." + idx, m[i]);
        ck.getMatrix("adam.v." + idx, v[i]);
    }
    adam.restoreState(m, v, ck.getU64("adam.t").value());
    model.dropoutRng().setStateWords(ck.getU64s("rng.drop").value().data());
    return std::monostate{};
}

void
writeTrajectories(formats::Checkpoint &ck, const TrainResult &r)
{
    ck.setDoubles("traj.trainLoss", r.trainLoss);
    ck.setDoubles("traj.valMetric", r.valMetric);
    ck.setDoubles("traj.testMetric", r.testMetric);
    ck.setU32s("traj.evalEpochs", r.evalEpochs);
    ck.setDoubles("traj.best", {r.bestValMetric, r.testAtBestVal,
                                r.finalTestMetric});
}

Expected<std::monostate, IoError>
readTrajectories(const formats::Checkpoint &ck, TrainResult &r)
{
    auto loss = ck.getDoubles("traj.trainLoss");
    if (!loss)
        return unexpected(std::move(loss.error()));
    auto val = ck.getDoubles("traj.valMetric");
    if (!val)
        return unexpected(std::move(val.error()));
    auto test = ck.getDoubles("traj.testMetric");
    if (!test)
        return unexpected(std::move(test.error()));
    auto epochs = ck.getU32s("traj.evalEpochs");
    if (!epochs)
        return unexpected(std::move(epochs.error()));
    auto best = ck.getDoubles("traj.best");
    if (!best)
        return unexpected(std::move(best.error()));
    if (best.value().size() != 3)
        return unexpected(IoError{
            IoErrorCode::CountMismatch, "", 0,
            "checkpoint section 'traj.best' must hold three doubles"});
    r.trainLoss = std::move(loss.value());
    r.valMetric = std::move(val.value());
    r.testMetric = std::move(test.value());
    r.evalEpochs = std::move(epochs.value());
    r.bestValMetric = best.value()[0];
    r.testAtBestVal = best.value()[1];
    r.finalTestMetric = best.value()[2];
    return std::monostate{};
}

} // namespace maxk::nn
