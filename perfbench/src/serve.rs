//! The `bq-serve` child process behind the wire ledger.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

use bq_obs::{SystemClock, WallClock};
use bq_wire::net::{connect_remote, Endpoint, RemoteBackend, SocketClient};
use bq_wire::TransportProfile;

use crate::host;

/// A running `bq-serve` listening on a Unix-domain socket, serving TPC-DS ×1
/// on DBMS-X with one fresh engine (seeded with `seed`) per connection.
///
/// Dropping it kills the process and waits for it, so no run leaves a
/// server behind, whatever path it exits by.
pub struct Server {
    child: Child,
    /// Held open until the server exits: a closed pipe would turn the
    /// server's next diagnostic into a write error.
    _stderr: BufReader<ChildStderr>,
    socket: PathBuf,
    /// Wall seconds from spawn until the server reported it was listening.
    pub spawn_s: f64,
}

impl Server {
    /// Spawn `bin` on `socket` and wait until it reports it is listening, so
    /// the first connect never races the bind.
    pub fn spawn(bin: &Path, socket: &Path, seed: u64) -> Result<Self, String> {
        let clock = SystemClock::new();
        let started = clock.now_seconds();
        let mut child = Command::new(bin)
            .arg("--uds")
            .arg(socket)
            .args(["--benchmark", "tpcds", "--scale", "1", "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("bq-serve exited before listening: {line}"));
                }
                Ok(_) if line.contains("listening on") => break,
                Ok(_) => {}
            }
        }
        Ok(Self {
            child,
            _stderr: stderr,
            socket: socket.to_path_buf(),
            spawn_s: clock.now_seconds() - started,
        })
    }

    /// Open one connection (a fresh engine on the server) over a
    /// zero-latency link and complete the protocol handshake.
    pub fn connect(&self) -> Result<RemoteBackend, String> {
        let client = SocketClient::connect(Endpoint::uds(&self.socket), TransportProfile::zero())
            .map_err(|e| format!("connecting to {}: {e}", self.socket.display()))?;
        connect_remote(client).map_err(|e| format!("handshake: {e}"))
    }

    /// User plus system CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        host::cpu_seconds(Some(self.child.id())).unwrap_or(f64::NAN)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
