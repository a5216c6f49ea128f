// EnsemblePredictor — races every pattern predictor per fd and lets the
// most accurate one drive prefetching.
//
// Each member (mode-aware, strided, list-I/O, sequential) keeps its own
// history via observe(). The ensemble additionally remembers each member's
// top-1 prediction for the fd and, on the next read, scores members by
// whether that prediction landed: an exponentially-decayed confidence
// (halve, then +128 on a correct call). Predictions are only issued once
// the best member clears a confidence floor, so a cold or pattern-broken
// stream issues nothing instead of guessing — that is what keeps the
// useful-prefetch ratio high under the adaptive controller.
//
// Scoring is pure integer arithmetic over the deterministic read stream,
// so ensemble choice is bit-reproducible across runs and sweep workers.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "prefetch/predictor.hpp"

namespace ppfs::prefetch {

class EnsemblePredictor final : public Predictor {
 public:
  static constexpr std::size_t kMembers = 4;
  /// Confidence ceiling (decay limit of repeated +128 rewards).
  static constexpr int kMaxScore = 255;
  /// Floor to win: at least two consecutive correct top-1 calls.
  static constexpr int kConfidenceFloor = 160;

  EnsemblePredictor();

  void observe(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len) override;
  std::size_t predict(pfs::PfsClient& client, int fd, FileOffset off, ByteCount len,
                      std::span<FileOffset> out) override;
  void forget(int fd) override;

  /// Index of the member currently driving predictions for `fd`, or -1
  /// while no member clears the confidence floor (cold / broken pattern).
  int winner(int fd) const;
  /// Current confidence score of member `i` for `fd` (0 when unknown).
  int score(int fd, std::size_t i) const;
  static const char* member_name(std::size_t i);

 private:
  struct Scores {
    std::int16_t score[kMembers] = {};
    FileOffset expected[kMembers] = {};
    bool valid[kMembers] = {};
  };

  int pick(const Scores& s) const;

  // Declaration order is the tie-break order: the paper's mode-aware rule
  // wins ties so default-shaped workloads keep the prototype's behavior.
  std::array<std::unique_ptr<Predictor>, kMembers> members_;
  sim::FlatMap<int, Scores> scores_;
};

}  // namespace ppfs::prefetch
