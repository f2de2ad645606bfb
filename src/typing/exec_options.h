#ifndef SCHEMEX_TYPING_EXEC_OPTIONS_H_
#define SCHEMEX_TYPING_EXEC_OPTIONS_H_

#include <cstddef>
#include <functional>

#include "util/status.h"

namespace schemex::typing {

/// Execution knobs shared by the pipeline stages. Every stage runs on the
/// caller's thread; the defaults never cancel.
struct ExecOptions {
  /// Ignored: every stage runs on the caller's thread. Kept only because
  /// perfbench/driver/replay.cc, which is frozen, still assigns it.
  size_t num_threads = 1;

  /// Cooperative cancellation: polled between refinement rounds, between
  /// GFP phases, and every few thousand worklist pops. Return non-OK
  /// (typically DeadlineExceeded) to abort; the status propagates
  /// verbatim. Null = never cancel.
  std::function<util::Status()> check_cancel;

  /// Test-only: collapse every refinement signature hash to one bucket so
  /// the exact collision-verification fallback carries the whole
  /// partition. The result must not change.
  bool debug_force_hash_collisions = false;

  /// Polls check_cancel if set.
  util::Status Poll() const {
    return check_cancel ? check_cancel() : util::Status::OK();
  }
};

}  // namespace schemex::typing

#endif  // SCHEMEX_TYPING_EXEC_OPTIONS_H_
