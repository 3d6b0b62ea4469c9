#ifndef SPE_CORE_SELF_PACED_SAMPLER_H_
#define SPE_CORE_SELF_PACED_SAMPLER_H_

#include <span>
#include <vector>

#include "spe/common/rng.h"
#include "spe/core/hardness.h"

namespace spe {

/// One self-paced harmonized under-sampling step (§V-A, lines 5-9 of
/// Algorithm 1): given the hardness of every majority sample w.r.t. the
/// current ensemble, selects `target_count` of them.
///
/// Mechanics: samples are cut into `num_bins` hardness bins; bin l gets
/// unnormalized weight p_l = 1 / (h_l + alpha) where h_l is its average
/// hardness; bin quotas are p_l / sum(p) * target_count, drawn without
/// replacement.
///   alpha = 0   — pure hardness harmonize: every bin contributes equal
///                 total hardness (Fig. 3b);
///   alpha -> inf — quotas approach uniform-over-bins, concentrating the
///                 pick on the sparse hard tail while a small skeleton of
///                 easy samples survives (Fig. 3d).
/// When a bin's quota exceeds its population the whole bin is taken and
/// the deficit is re-drawn uniformly from the remaining majority pool, so
/// exactly target_count indices come back (matching the reference
/// implementation's behaviour of always returning |P| samples).
///
/// Returns indices into `majority_hardness`.
///
/// Scratch memory: 4 bytes per majority sample (one uint32 table holding
/// every bin's members, bin by bin, where each bin's quota is drawn in
/// place) plus O(target_count + num_bins), the returned vector included.
/// The draws are those of Rng::SampleWithoutReplacement per bin, so the
/// picks, their order and the Rng state afterwards do not depend on this
/// layout. Requires fewer than 2^32 majority samples.
///
/// `bin_population_out`, when non-null, reports how many samples were
/// drawn from each hardness bin (the Fig. 3 distribution): resized to
/// `num_bins` on the harmonized path, cleared on the degenerate paths
/// (take-everything, all-trivial random fallback). Pure reporting — it
/// never changes which samples are drawn or how the Rng advances.
std::vector<std::size_t> SelfPacedUnderSample(
    std::span<const double> majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out = nullptr);

/// The same draw with each sample's hardness evaluated where it is read
/// (three times per sample) instead of stored: what SelfPacedEnsemble
/// runs, so its loop holds no |N|-sized hardness vector. Identical picks,
/// quotas and Rng state to the overload above given the stored values.
std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out = nullptr);

}  // namespace spe

#endif  // SPE_CORE_SELF_PACED_SAMPLER_H_
