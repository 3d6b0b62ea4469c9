#include "spe/sampling/sampler_factory.h"

#include "spe/common/check.h"
#include "spe/sampling/adasyn.h"
#include "spe/sampling/all_knn.h"
#include "spe/sampling/borderline_smote.h"
#include "spe/sampling/cluster_centroids.h"
#include "spe/sampling/condensed_nn.h"
#include "spe/sampling/enn.h"
#include "spe/sampling/instance_hardness_threshold.h"
#include "spe/sampling/kmeans_smote.h"
#include "spe/sampling/near_miss.h"
#include "spe/sampling/ncr.h"
#include "spe/sampling/one_side_selection.h"
#include "spe/sampling/random_over.h"
#include "spe/sampling/random_under.h"
#include "spe/sampling/smote.h"
#include "spe/sampling/smote_enn.h"
#include "spe/sampling/smote_tomek.h"
#include "spe/sampling/tomek_links.h"

namespace spe {

Sampler::~Sampler() = default;

Dataset Sampler::Resample(const Dataset& data, Rng& rng) const {
  std::vector<std::size_t> keep;
  const bool subset = SelectIndices(data, rng, &keep);
  SPE_CHECK(subset) << Name() << " synthesizes rows and must override Resample";
  return data.Subset(keep);
}

std::unique_ptr<Sampler> MakeSampler(const std::string& name) {
  if (name == "RandUnder") return std::make_unique<RandomUnderSampler>();
  if (name == "NearMiss") return std::make_unique<NearMissSampler>();
  if (name == "Clean") return std::make_unique<NcrSampler>();
  if (name == "ENN") return std::make_unique<EnnSampler>();
  if (name == "TomekLink") return std::make_unique<TomekLinksSampler>();
  if (name == "AllKNN") return std::make_unique<AllKnnSampler>();
  if (name == "OSS") return std::make_unique<OneSideSelectionSampler>();
  if (name == "RandOver") return std::make_unique<RandomOverSampler>();
  if (name == "SMOTE") return std::make_unique<SmoteSampler>();
  if (name == "ADASYN") return std::make_unique<AdasynSampler>();
  if (name == "BorderSMOTE") return std::make_unique<BorderlineSmoteSampler>();
  if (name == "SMOTEENN") return std::make_unique<SmoteEnnSampler>();
  if (name == "SMOTETomek") return std::make_unique<SmoteTomekSampler>();
  // Extensions beyond the paper's Table V (see DESIGN.md §4).
  if (name == "CNN") return std::make_unique<CondensedNnSampler>();
  if (name == "IHT") return std::make_unique<InstanceHardnessThresholdSampler>();
  if (name == "ClusterCentroids") return std::make_unique<ClusterCentroidsSampler>();
  if (name == "KMeansSMOTE") return std::make_unique<KMeansSmoteSampler>();
  SPE_CHECK(false) << "unknown sampler name: " << name;
  return nullptr;  // unreachable
}

std::vector<std::string> KnownSamplerNames() {
  return {"RandUnder", "NearMiss",    "Clean",    "ENN",        "TomekLink",
          "AllKNN",    "OSS",         "RandOver", "SMOTE",      "ADASYN",
          "BorderSMOTE", "SMOTEENN", "SMOTETomek",
          // Extensions beyond the paper's Table V rows:
          "CNN", "IHT", "ClusterCentroids", "KMeansSMOTE"};
}

}  // namespace spe
