//! [`DEFAULT_LINGER`], kept only for `perfbench/`'s call sites.

use std::time::Duration;

/// Kept only for `perfbench/`'s call sites, which pass it to
/// `ecs_service::protocol::run_job`; nothing reads it. Remove it with the
/// next change to the benchmark.
pub const DEFAULT_LINGER: Duration = Duration::from_micros(200);
