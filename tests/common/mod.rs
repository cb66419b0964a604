//! Helpers shared by the suites that drive an in-process `mcc serve`
//! daemon (`serve_e2e`, `chaos_recovery`, `serve_overload`, `serve_fuzz`,
//! `codec_roundtrip`) and the CLI suite's scratch directories.

// Each suite uses a subset.
#![allow(dead_code)]

use mc_checker::serve::proto::{write_frame_with, Frame};
use mc_checker::serve::{CodecKind, Registry, ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Starts an in-process daemon on an ephemeral port. Returns its
/// address, the shutdown handle, its registry (so a test can read the
/// fleet and the shed log directly) and the serve thread to join after
/// `shutdown()`.
pub fn start_server(
    cfg: ServeConfig,
) -> (String, ServerHandle, Arc<Registry>, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let registry = server.registry();
    let join = thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, registry, join)
}

/// Polls `f` every 20 ms until it holds; `false` once `timeout` has
/// passed without it holding.
pub fn wait_until(mut f: impl FnMut() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    loop {
        if f() {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Reads the integer value of `"key":N` out of a stats/health document.
pub fn json_field(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Handshake and control traffic written by hand is always JSON on the
/// wire.
pub fn write_json(w: &mut impl std::io::Write, f: &Frame) -> std::io::Result<()> {
    write_frame_with(w, f, CodecKind::Json)
}

/// A scratch directory under the target dir, private to one test and
/// emptied on entry.
pub fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}
