//! Property: the protocol parsers never panic, whatever a peer sends.
//!
//! `Request::parse` runs on every line a client sends the daemon, and
//! `Response::parse` on every line a daemon sends a client, so both must
//! answer any input — random bytes, or known keys with garbage values — with
//! `Ok` or `Err`, never a panic.

use ecs_service::{Request, Response};
use proptest::prelude::*;

/// Keys a `status` line is built from: every key the parser reads, the
/// retired `tuning=`, and two degenerate ones.
const KEYS: [&str; 10] = [
    "queued=",
    "inflight=",
    "completed=",
    "draining=",
    "tenants=",
    "latency_us=",
    "rate_mjps=",
    "tuning=",
    "",
    "=",
];

/// Values that are well formed, truncated, out of range or garbage.
const VALUES: [&str; 14] = [
    "0",
    "7",
    "-1",
    "true",
    "x",
    "",
    "a:1:2",
    "a:1:2:3:4:5",
    "a:0:1:0:-:-,b:junk",
    "a:1.2.3;4.5",
    ":::",
    ",,",
    "18446744073709551616",
    "a:2:64:-",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_byte_lines_never_panic_either_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    #[test]
    fn status_token_soups_never_panic_and_reparse(
        tokens in proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..12),
    ) {
        let mut line = String::from("status");
        for (key, value) in tokens {
            line.push(' ');
            line.push_str(KEYS[key]);
            line.push_str(VALUES[value]);
        }
        let _ = Request::parse(&line);
        if let Ok(status) = Response::parse(&line) {
            prop_assert_eq!(Response::parse(&status.render()), Ok(status));
        }
    }
}

/// A status line from a daemon that still reported per-tenant tuning parses,
/// and the retired `tuning=` token is ignored.
#[test]
fn an_older_status_line_with_tuning_still_parses() {
    let line = "status queued=0 inflight=1 completed=5 draining=false \
                tenants=a:0:5:0:-:- rate_mjps=1500 tuning=a:2:64:-";
    let parsed = Response::parse(line).expect("the older status line parses");
    assert_eq!(
        parsed.render(),
        "status queued=0 inflight=1 completed=5 draining=false \
         tenants=a:0:5:0:-:- rate_mjps=1500"
    );
}
