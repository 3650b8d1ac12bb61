#include "gnnbench/core/optim.h"

#include <cmath>

namespace gnnbench {
namespace core {

Adam::Adam(std::vector<ag::Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const auto &p : params_) {
        GNNBENCH_CHECK(p && p->requiresGrad,
                       "optimizer parameter must require grad");
        m_.emplace_back(p->value.rows(), p->value.cols());
        v_.emplace_back(p->value.rows(), p->value.cols());
    }
}

void
Adam::zeroGrad()
{
    for (auto &p : params_)
        p->zeroGrad();
}

void
Adam::step()
{
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        auto &p = params_[i];
        if (p->grad.empty())
            continue;
        float *mp = m_[i].data();
        float *vp = v_[i].data();
        const float *gp = p->grad.data();
        float *xp = p->value.data();
        for (int64_t j = 0; j < p->value.numel(); ++j) {
            mp[j] = beta1_ * mp[j] + (1.0f - beta1_) * gp[j];
            vp[j] = beta2_ * vp[j] + (1.0f - beta2_) * gp[j] * gp[j];
            const float mhat = mp[j] / bc1;
            const float vhat = vp[j] / bc2;
            xp[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
    }
}

} // namespace core
} // namespace gnnbench
