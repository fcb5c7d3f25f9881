#include "stack/storm.h"

#include <string>
#include <utility>

#include "stack/network.h"

namespace cnv::stack {

namespace {
std::string BurstLabel(std::size_t count, SimDuration spacing) {
  return "count=" + std::to_string(count) + " spacing=" +
         FormatDuration(spacing);
}
}  // namespace

StormGenerator::StormGenerator(sim::Simulator& sim, trace::Collector& trace,
                               Mme& mme, Msc& msc, Sgsn& sgsn)
    : sim_(sim), trace_(trace), mme_(mme), msc_(msc), sgsn_(sgsn) {}

void StormGenerator::NoteBurst(SimTime start, std::size_t count,
                               SimDuration spacing) {
  if (count == 0) return;
  const SimTime end =
      start + static_cast<SimDuration>(count - 1) * spacing;
  if (end > last_injection_at_) last_injection_at_ = end;
}

std::uint64_t StormGenerator::injected() const {
  std::uint64_t n = injected_;
  for (const sim::Simulator::KeyBlock& b : tallied_) n += sim_.Passed(b);
  return n;
}

void StormGenerator::Announce(SimTime start, nas::System system,
                              std::string what, std::size_t count,
                              SimDuration spacing) {
  sim_.ScheduleAt(start, [this, system, what = std::move(what), count,
                          spacing] {
    trace_.Event(system, "STORM",
                 what + " (" + BurstLabel(count, spacing) + ")");
  });
}

void StormGenerator::Background(
    CoreElement& target, SimTime start, std::size_t count,
    SimDuration spacing,
    std::function<void(std::size_t, nas::Message&)> fill) {
  const std::uint64_t first_imsi = next_bg_imsi_;
  next_bg_imsi_ += count;
  if (target.admission() == AdmissionPolicy::kOff) {
    // The legacy core only counts synthetic load: tally it.
    tallied_.push_back(target.TallyBackground(start, count, spacing));
    return;
  }
  // Admission control queues each arrival, so each one is stepped.
  sim_.ScheduleSeries(start, count, spacing,
                      [this, &target, first_imsi,
                       fill = std::move(fill)](std::size_t i) {
                        nas::Message m;
                        m.imsi = nas::Imsi{first_imsi + i};
                        m.synthetic = true;
                        fill(i, m);
                        ++injected_;
                        target.OnUplink(m);
                      });
}

void StormGenerator::MassAttach(SimTime start, std::size_t count,
                                SimDuration spacing) {
  NoteBurst(start, count, spacing);
  if (count == 0) return;
  Announce(start, nas::System::k4G, "Mass attach storm begins", count,
           spacing);
  Background(mme_, start, count, spacing,
             [](std::size_t, nas::Message& m) {
               m.kind = nas::MsgKind::kAttachRequest;
               m.protocol = nas::Protocol::kEmm;
             });
}

void StormGenerator::TaPingPong(SimTime start, std::size_t count,
                                SimDuration spacing) {
  NoteBurst(start, count, spacing);
  if (count == 0) return;
  Announce(start, nas::System::k4G, "TA ping-pong burst begins", count,
           spacing);
  Background(mme_, start, count, spacing,
             [](std::size_t i, nas::Message& m) {
               m.kind = nas::MsgKind::kTauRequest;
               m.protocol = nas::Protocol::kEmm;
               // Border devices alternate between two tracking areas.
               m.tai.tac = (i % 2 == 0) ? 0x0101 : 0x0102;
             });
}

void StormGenerator::PagingFlood(SimTime start, std::size_t count,
                                 SimDuration spacing) {
  NoteBurst(start, count, spacing);
  if (count == 0) return;
  Announce(start, nas::System::k3G, "Paging flood begins", count, spacing);
  Background(msc_, start, count, spacing,
             [](std::size_t, nas::Message& m) {
               m.kind = nas::MsgKind::kPagingResponse;
               m.protocol = nas::Protocol::kMm;
             });
}

namespace {
// The adversarial corpus cycles through seven entries; entries 3 and 6 are
// replays that each carry a fresh uid.
constexpr std::size_t kCorpusSize = 7;

// Uids taken by the burst steps before step `i`.
std::uint64_t ReplayUidsBefore(std::size_t i) {
  return 2 * (i / kCorpusSize) + (i % kCorpusSize > 3 ? 1 : 0);
}
}  // namespace

void StormGenerator::AdversarialNas(SimTime start, std::size_t count,
                                    SimDuration spacing) {
  // Replayed entries inject twice, so they advance the burst grid like a
  // single slot but count as two messages.
  NoteBurst(start, count, spacing);
  if (count == 0) return;
  Announce(start, nas::System::k4G, "Adversarial NAS burst begins", count,
           spacing);
  const std::uint64_t imsi = next_bg_imsi_;
  const std::uint64_t first_uid = next_uid_;
  next_uid_ += ReplayUidsBefore(count);
  sim_.ScheduleSeries(start, count, spacing, [this, imsi,
                                              first_uid](std::size_t i) {
    nas::Message m;
    m.imsi = nas::Imsi{imsi};
    // Deterministic corpus cycle. Valid-integrity entries are restricted to
    // kinds whose dispatch is a no-op outside an in-flight procedure and
    // which have no congestion-reject counterpart, so an adversarial burst
    // can never push spurious rejects to the real device.
    switch (i % kCorpusSize) {
      case 0:
        m.kind = nas::MsgKind::kAttachRequest;
        m.protocol = nas::Protocol::kEmm;
        m.integrity = nas::MsgIntegrity::kMalformed;
        ++injected_;
        mme_.OnUplink(m);
        break;
      case 1:
        m.kind = nas::MsgKind::kTauRequest;
        m.protocol = nas::Protocol::kEmm;
        m.integrity = nas::MsgIntegrity::kTruncated;
        ++injected_;
        mme_.OnUplink(m);
        break;
      case 2:
        m.kind = nas::MsgKind::kLocationUpdateRequest;
        m.protocol = nas::Protocol::kEsm;  // discriminator mismatch
        m.integrity = nas::MsgIntegrity::kWrongProtocol;
        ++injected_;
        msc_.OnUplink(m);
        break;
      case 3:
        // Replay: a captured (valid) Attach Complete sent twice. The first
        // copy is a no-op unless an attach is mid-flight; the duplicate is
        // caught by the replay cache.
        m.kind = nas::MsgKind::kAttachComplete;
        m.protocol = nas::Protocol::kEmm;
        m.uid = first_uid + ReplayUidsBefore(i);
        ++injected_;
        mme_.OnUplink(m);
        ++injected_;
        mme_.OnUplink(m);
        break;
      case 4:
        m.kind = nas::MsgKind::kGprsAttachRequest;
        m.protocol = nas::Protocol::kGmm;
        m.integrity = nas::MsgIntegrity::kMalformed;
        ++injected_;
        sgsn_.OnUplink(m);
        break;
      case 5:
        m.kind = nas::MsgKind::kCmServiceRequest;
        m.protocol = nas::Protocol::kMm;
        m.integrity = nas::MsgIntegrity::kTruncated;
        ++injected_;
        msc_.OnUplink(m);
        break;
      default:
        // Replay at the SGSN: a duplicated (valid) deactivation confirm.
        m.kind = nas::MsgKind::kPdpDeactivateAccept;
        m.protocol = nas::Protocol::kSm;
        m.uid = first_uid + ReplayUidsBefore(i);
        ++injected_;
        sgsn_.OnUplink(m);
        ++injected_;
        sgsn_.OnUplink(m);
        break;
    }
  });
}

}  // namespace cnv::stack
