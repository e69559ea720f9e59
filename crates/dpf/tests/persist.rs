//! The live service reaches the persistent tier. Own process: `dpf`'s
//! tier is process-wide (first `enable_persist` wins), so these checks
//! cannot share a binary with suites that must run without one.

use dpf::packet::{self, PacketSpec};
use dpf::{DpfService, Options};
use std::path::Path;

/// Linear dispatch only: position-independent code, so it persists.
fn pic() -> Options {
    Options {
        use_jump_tables: false,
        use_hashing: false,
        ..Options::default()
    }
}

fn artifacts(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("artifact directory exists")
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(".vcar")
        })
        .count()
}

/// A set installed through `DpfService` is built by the insert itself,
/// through the stack: that build must store through (an artifact
/// appears), and once the in-memory cache is gone a re-install of the
/// same set must be served by the artifact — nothing compiled.
#[test]
fn service_installs_persist_and_warm_reinstalls_publish_native() {
    let dir = std::env::temp_dir().join(format!("dpf-persist-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(dpf::enable_persist(&dir).unwrap());
    let tier = dpf::persist_tier().expect("attached above");
    let msg = packet::build(&PacketSpec {
        dst_port: 9000,
        ..PacketSpec::default()
    });
    let filter = || packet::tcp_port_filter(0x0a00_0002, 9000).unwrap();

    let cold = DpfService::with_options(pic());
    let id = cold.insert(filter());
    assert!(cold.is_native(), "the insert returns built");
    assert_eq!(cold.classify(&msg), Some(id));
    assert_eq!(
        artifacts(&dir),
        1,
        "the install's build must store through to the artifact directory"
    );
    drop(cold);

    dpf::clear_cache();
    let before = tier.stats();
    let warm = DpfService::with_options(pic());
    let id = warm.insert(filter());
    let st = warm.stats();
    assert!(st.native, "warm key publishes native");
    assert_eq!(
        (
            st.native_publishes,
            st.degraded_publishes,
            st.degraded_calls
        ),
        (1, 0, 0),
        "one native generation from a warm artifact directory"
    );
    assert_eq!(warm.classify(&msg), Some(id));
    let after = tier.stats();
    assert_eq!(
        (after.hits - before.hits, after.stores - before.stores),
        (1, 0),
        "served by one verified disk load, nothing rebuilt"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
