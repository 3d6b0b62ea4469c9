#ifndef SPE_CORE_SELF_PACED_SAMPLER_H_
#define SPE_CORE_SELF_PACED_SAMPLER_H_

#include <span>
#include <vector>

#include "spe/common/rng.h"
#include "spe/core/hardness.h"
#include "spe/data/dataset.h"

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
/// (three times per sample) instead of stored, so the caller holds no
/// |N|-sized hardness vector. Identical picks, quotas and Rng state to
/// the overload above given the stored values.
std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out = nullptr);

/// The number of label-0 rows of `rows`, a columnar view: |N| for the
/// row forms below.
std::size_t CountMajorityRows(const DatasetView& rows);

/// The same draw with each pick returned as a row of `rows` instead of
/// an ordinal: majority sample m is the m-th label-0 row of `rows` (a
/// columnar view), in view order, and `majority_hardness` holds one
/// entry per label-0 row (checked). The table holds that row where the
/// ordinal form holds m, and the draws and swaps are the same, so pick
/// r here is the label-0 row of the ordinal form's pick r, with the
/// same quotas, `bin_population_out` and Rng state. When
/// `target_count` >= |N| every label-0 row comes back in ascending
/// order. The rows are those of the view (compose through
/// DatasetView::RowIndex for parent rows), and `rows` must have fewer
/// than 2^32 of them. This is what SelfPacedEnsemble runs: it keeps no
/// majority index list.
std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, const DatasetView& rows,
    double alpha, std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out = nullptr);

/// `count` label-0 rows of `rows` drawn uniformly without replacement:
/// the rows at the ordinals Rng::SampleWithoutReplacement(|N|, count)
/// would return, in its order and with its Rng state afterwards, drawn
/// in a table of 4 bytes per label-0 row that is freed on return. When
/// `count` >= |N| every label-0 row comes back in ascending order and
/// the Rng is not drawn. SelfPacedEnsemble's bootstrap pick (Algorithm 1,
/// line 2). Rows as above.
std::vector<std::size_t> SampleMajorityRows(const DatasetView& rows,
                                            std::size_t count, Rng& rng);

}  // namespace spe

#endif  // SPE_CORE_SELF_PACED_SAMPLER_H_
