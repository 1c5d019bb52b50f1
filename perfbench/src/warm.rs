//! Keeps the CPUs out of idle while a serving workload runs.
//!
//! On a virtual machine an idle CPU halts, and waking it again waits on
//! the hypervisor's scheduler: on a shared host that adds milliseconds to
//! a thread wake-up at random, which swamps the latency of a request that
//! passes through four wake-ups (event loop, worker, event loop, client).
//! One lowest-priority (`nice 19`) spinning process per CPU keeps every
//! CPU running; any thread of the benchmarked process preempts it at
//! once, so it takes almost no time from the program under test. The
//! spinners check on their parent and exit when it is gone.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Flag that turns the benchmark binary into a spinner.
pub const SPIN_FLAG: &str = "--keep-warm-spinner";
/// A spinner outlives no run: it stops on its own after this long.
const MAX_SPIN: Duration = Duration::from_secs(300);

/// Running spinner processes; dropping this stops and reaps them.
pub struct KeepWarm {
    children: Vec<Child>,
}

impl KeepWarm {
    /// Starts one spinner per CPU; returns with none (and says so on
    /// stderr) where `nice` or the binary cannot be started.
    pub fn start(cpus: usize) -> KeepWarm {
        let mut children = Vec::with_capacity(cpus);
        let parent = std::process::id().to_string();
        if let Ok(exe) = std::env::current_exe() {
            for _ in 0..cpus {
                let child = Command::new("nice")
                    .args(["-n", "19"])
                    .arg(&exe)
                    .args([SPIN_FLAG, &parent])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn();
                match child {
                    Ok(child) => children.push(child),
                    Err(e) => {
                        eprintln!("perfbench: cannot start a keep-warm spinner: {e}");
                        break;
                    }
                }
            }
        }
        KeepWarm { children }
    }

    /// Spinners running.
    pub fn count(&self) -> usize {
        self.children.len()
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        for child in &mut self.children {
            // The spinner may have exited already; only reaping matters.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner's body: busy-waits until `parent` is gone or
/// [`MAX_SPIN`] has passed.
pub fn spin(parent: u32) {
    let start = Instant::now();
    while std::os::unix::process::parent_id() == parent && start.elapsed() < MAX_SPIN {
        for _ in 0..10_000 {
            std::hint::spin_loop();
        }
    }
}
