//! SIGTERM/SIGINT → atomic flag, without a `libc` dependency.
//!
//! The build is air-gapped, so instead of pulling in `libc` for one
//! symbol, the POSIX `signal(2)` entry point is declared directly. The
//! handler does the only thing that is async-signal-safe here: a relaxed
//! store into a static [`AtomicBool`] the accept loop checks. Process
//! managers (and `scripts/serve_smoke.sh`) stop the daemon with SIGTERM
//! and expect a clean exit: socket file removed, exit code 0.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; checked by [`crate::server::Server::run`]'s
/// accept loop between waits for a connection.
static TERMINATE: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn flag_termination(_signum: i32) {
    // Only async-signal-safe operation in this crate: one atomic store.
    TERMINATE.store(true, Ordering::SeqCst);
}

extern "C" {
    /// POSIX `signal(2)`. Returns the previous handler (unused here).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install the SIGTERM/SIGINT handler and return the flag it sets.
/// Idempotent; safe to call once per process before serving.
///
/// The workspace's only `unsafe` (the lint table denies it everywhere
/// else): one foreign call with no `libc` to wrap it.
#[allow(unsafe_code)]
pub fn install_termination_flag() -> &'static AtomicBool {
    let handler = flag_termination as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is the POSIX entry point; the handler only performs
    // an atomic store, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    &TERMINATE
}
