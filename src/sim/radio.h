// Radio propagation abstractions: RSSI as a function of position along a
// drive route (Figure 7 bottom panel) and signal-loss probability as a
// function of RSSI (the paper triggers S2 in areas below -110 dBm).
#pragma once

#include <vector>

namespace cnv::sim {

// Signal-loss probability for one control message over the air. The paper's
// observations: good signal in [-95, -51] dBm rarely loses signaling;
// below -110 dBm losses become common (§5.2.2).
double LossFromRssi(double rssi_dbm);

// Piecewise-linear RSSI profile along a route, in (mile, dBm) anchors.
class RssiProfile {
 public:
  struct Anchor {
    double mile;
    double rssi_dbm;
  };

  // Anchors must be non-empty and sorted by mile.
  explicit RssiProfile(std::vector<Anchor> anchors);

  // Interpolated RSSI at `mile` (clamped to the profile's ends).
  double At(double mile) const;

  double EndMile() const { return anchors_.back().mile; }

 private:
  std::vector<Anchor> anchors_;
};

// The paper's Route-1: a 15-mile freeway stretch with RSSI varying in the
// good-signal range [-51, -95] dBm (Figure 7, bottom).
RssiProfile Route1Profile();

// Route-2: 28.3 miles of freeway + local streets.
RssiProfile Route2Profile();

}  // namespace cnv::sim
