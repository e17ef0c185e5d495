//! What a run leaves on disk and in the process table, and the guards that
//! take it away again on normal exit, on error and on panic.

use hstreams_core::Endpoint;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A run's private directory for sockets and WAL roots. Created empty —
/// whatever a killed earlier run of the same workload left is removed
/// first — and removed again on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(dir: PathBuf) -> std::io::Result<Scratch> {
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest mount
/// point that is a prefix of the canonical path). fsync on tmpfs is free,
/// so `smallact_wal` numbers are only comparable with this stated.
pub fn fs_type(path: &Path) -> String {
    let Ok(canon) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            canon.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; `None` once it is
/// gone or on a platform without `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A card hosted by a child process: this same binary run as
/// `hs-e2e worker`. Dropping it kills the child, waits for it and removes
/// its socket. The child also holds the read end of a pipe whose write end
/// lives here, and exits when that closes — so a benchmark that is itself
/// killed leaves no worker behind.
pub struct Worker {
    child: Child,
    endpoint: Endpoint,
}

impl Worker {
    /// Start a worker on a Unix socket at `sock` and wait until it accepts.
    pub fn spawn_uds(sock: &Path) -> Result<Worker, String> {
        let _ = std::fs::remove_file(sock);
        let child = Self::command()?
            .arg("--uds")
            .arg(sock)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning worker: {e}"))?;
        let mut w = Worker {
            child,
            endpoint: Endpoint::Uds(sock.to_path_buf()),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sock.exists() {
            if w.child.try_wait().ok().flatten().is_some() {
                return Err("worker exited before binding its socket".to_string());
            }
            if Instant::now() > deadline {
                return Err("worker did not bind its socket within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(w)
    }

    /// Start a worker on an ephemeral loopback TCP port; the worker prints
    /// the address it bound as its first line.
    pub fn spawn_tcp() -> Result<Worker, String> {
        let mut child = Self::command()?
            .args(["--tcp", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning worker: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .ok_or_else(|| "worker stdout not captured".to_string())
            .and_then(|out| {
                BufReader::new(out)
                    .read_line(&mut line)
                    .map_err(|e| format!("reading worker address: {e}"))
            });
        // From here the guard owns the child, whatever `read` says.
        let w = Worker {
            child,
            endpoint: Endpoint::Tcp(line.trim().to_string()),
        };
        match read {
            Ok(n) if n > 0 => Ok(w),
            Ok(_) => Err("worker exited before printing its address".to_string()),
            Err(e) => Err(e),
        }
    }

    fn command() -> Result<Command, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut c = Command::new(exe);
        c.arg("worker").stdin(Stdio::piped());
        Ok(c)
    }

    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Endpoint::Uds(sock) = &self.endpoint {
            let _ = std::fs::remove_file(sock);
        }
    }
}
