// Compatibility name for the TKIP trailer likelihood build. New code calls
// TkipTrailerLikelihoods (src/tkip/attack.h) directly; this forwarder keeps
// the name the perfbench tkip-attack workload traces its tables step under.
#ifndef SRC_RECOVERY_LIKELIHOOD_SOURCE_H_
#define SRC_RECOVERY_LIKELIHOOD_SOURCE_H_

#include "src/tkip/attack.h"

namespace rc4b::recovery {

// Binds captured TKIP frame statistics to the attacker's per-TSC1 model;
// Tables() returns TkipTrailerLikelihoods(stats, model) for the statistics
// as they stand. The referenced stats and model must outlive the object.
class TkipTscLikelihoodSource {
 public:
  TkipTscLikelihoodSource(const TkipCaptureStats& stats,
                          const TkipTscModel& model)
      : stats_(&stats), model_(&model) {}

  SingleByteTables Tables() const {
    return TkipTrailerLikelihoods(*stats_, *model_);
  }

 private:
  const TkipCaptureStats* stats_;
  const TkipTscModel* model_;
};

}  // namespace rc4b::recovery

#endif  // SRC_RECOVERY_LIKELIHOOD_SOURCE_H_
