// The traced composition of the reliability supervisor.
//
// Sessions, ARQ, the faulty link and the event clock are reachable only
// inside run_reliable_key_agreement_on, which opens no spans of its own.
// composed_agreement() rebuilds that supervisor from the same public
// classes it wires (AliceSession/BobSession, ReliableTransport,
// UnreliableChannel, SimClock, FlightRecorder), step for step, and wraps a
// Span around every call into one of them and every callback it hands
// them. The faithfulness gate requires that it reproduces the library
// entry point's keys, attempts and frame counts for the same seeds.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitvec.h"
#include "core/reconciler.h"
#include "protocol/channel.h"
#include "protocol/message.h"
#include "protocol/reliability.h"
#include "protocol/sim_clock.h"

namespace perfbench {

struct ComposedAgreement {
  vkey::protocol::AgreementReport report;
  vkey::BitVec bob_key;    ///< Bob's final key; empty unless established
  std::size_t events = 0;  ///< SimClock events dispatched
};

/// Same contract as vkey::protocol::run_reliable_key_agreement_on. Frames
/// the link corrupted are appended to `corrupted` (with allocation
/// accounting paused) for the wire-codec replay.
ComposedAgreement composed_agreement(
    vkey::protocol::SimClock& clock, vkey::protocol::PublicChannel& base,
    const vkey::core::AutoencoderReconciler& reconciler,
    const vkey::protocol::ReliabilityConfig& config,
    const vkey::protocol::ProbeMaterialFn& material,
    std::vector<vkey::protocol::Message>& corrupted);

}  // namespace perfbench
