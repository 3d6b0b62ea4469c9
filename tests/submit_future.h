#ifndef SPE_TESTS_SUBMIT_FUTURE_H_
#define SPE_TESTS_SUBMIT_FUTURE_H_

#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "spe/serve/batch_scorer.h"

namespace spe {
namespace testing {

/// Future flavour of BatchScorer::SubmitCallback, for tests that submit
/// many rows first and collect results (or errors) afterwards.
inline std::future<ScoreResult> SubmitFuture(
    BatchScorer& scorer, std::vector<double> features,
    std::chrono::steady_clock::time_point deadline =
        BatchScorer::kNoDeadline) {
  auto promise = std::make_shared<std::promise<ScoreResult>>();
  std::future<ScoreResult> future = promise->get_future();
  scorer.SubmitCallback(
      std::move(features), deadline,
      [promise](ScoreResult result, std::exception_ptr error,
                std::vector<double>) {
        if (error != nullptr) {
          promise->set_exception(std::move(error));
        } else {
          promise->set_value(result);
        }
      });
  return future;
}

}  // namespace testing
}  // namespace spe

#endif  // SPE_TESTS_SUBMIT_FUTURE_H_
