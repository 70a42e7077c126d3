//! Driving the shipped programs as subprocesses: locating them, a run
//! directory that is removed at exit, children that are always reaped,
//! and peak resident memory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where runs keep their scratch directories and trace artifacts,
/// relative to the working directory (the repository root).
pub const OUT_DIR: &str = "aerobench-out";

/// A shipped binary, which the build places next to this one.
pub fn bin(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating aerobench: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found (build the workspace binaries first)",
            path.display()
        ))
    }
}

/// A scratch directory holding one run's sockets, data, plans, stores and
/// events; removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(OUT_DIR).join(format!("run-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `name` inside the run directory, as a string path.
    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves OUT_DIR itself only if nothing else (trace artifacts) is in it.
        let _ = std::fs::remove_dir(OUT_DIR);
    }
}

/// A child process that is killed and reaped if still running when dropped.
pub struct ChildGuard(pub Child);

impl ChildGuard {
    /// Wait up to `limit` for a clean exit, then kill.
    pub fn wait_or_kill(&mut self, limit: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return Err(format!("pid {} did not exit within {limit:?}", self.0.id()));
                }
                Err(e) => return Err(format!("waiting for pid {}: {e}", self.0.id())),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One finished subprocess run.
pub struct Finished {
    pub status: ExitStatus,
    pub wall_s: f64,
    /// Largest `VmHWM` sampled every 5 ms while it ran [MiB].
    pub rss_mb: f64,
}

/// Spawn `cmd` with stdout to `stdout_path` and stderr discarded, block
/// until it exits, and time it from spawn to exit. A second thread samples
/// its peak memory.
pub fn run_watched(cmd: &mut Command, stdout_path: &str) -> Result<Finished, String> {
    let out = std::fs::File::create(stdout_path).map_err(|e| format!("{stdout_path}: {e}"))?;
    cmd.stdout(out).stderr(Stdio::null());
    let t0 = Instant::now();
    let mut child = ChildGuard(cmd.spawn().map_err(|e| format!("spawning {cmd:?}: {e}"))?);
    let pid = child.0.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let status = child.0.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let rss_mb = sampler.join().expect("memory sampler does not panic");
        let status = status.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
        Ok(Finished {
            status,
            wall_s,
            rss_mb,
        })
    })
}

/// Spawn `cmd` with output discarded and time it to exit.
pub fn run_quiet(cmd: &mut Command) -> Result<(ExitStatus, f64), String> {
    let t0 = Instant::now();
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running {cmd:?}: {e}"))?;
    Ok((status, t0.elapsed().as_secs_f64()))
}
