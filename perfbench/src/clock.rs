//! The benchmark's one time source: `rnb-store`'s monotonic [`Clock`],
//! the repository's sanctioned wall-clock read.

use rnb_store::Clock;
use std::sync::OnceLock;
use std::time::Duration;

/// Nanoseconds since the first call.
pub fn now_ns() -> u64 {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(Clock::real).now()
}

/// Block until `deadline` (on [`now_ns`]'s timeline). Parks rather than
/// sleeps; a spurious wake-up just parks again.
pub fn wait_until(deadline: u64) {
    loop {
        let now = now_ns();
        if now >= deadline {
            return;
        }
        std::thread::park_timeout(Duration::from_nanos(deadline - now));
    }
}
