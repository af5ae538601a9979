//! The client end of a connection: connect to a daemon's socket, send one
//! frame, read one reply line. The CLI's `client`, `watch` and `loadgen`
//! and the daemon's tests all talk to a daemon through [`Client`].

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a daemon. Frames go straight to the socket; replies
/// are read a line at a time through one buffer.
#[derive(Debug)]
pub struct Client {
    conn: BufReader<UnixStream>,
    frame: Vec<u8>,
}

impl Client {
    /// Connect to the daemon listening on `socket`; the error names it.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        let socket = socket.as_ref();
        UnixStream::connect(socket).map(Client::from).map_err(|e| {
            let msg = format!("connecting to {}: {e}", socket.display());
            io::Error::new(e.kind(), msg)
        })
    }

    /// Send one frame. The newline is added here, and the frame and its
    /// newline leave in one write.
    pub fn send(&mut self, frame: &str) -> io::Result<()> {
        self.frame.clear();
        self.frame.extend_from_slice(frame.as_bytes());
        self.frame.push(b'\n');
        self.conn.get_ref().write_all(&self.frame)
    }

    /// Read the next reply line, newline included, into `line` (which is
    /// cleared first). `Ok(false)` when the daemon closed the connection.
    pub fn recv(&mut self, line: &mut String) -> io::Result<bool> {
        line.clear();
        Ok(self.conn.read_line(line)? > 0)
    }

    /// The socket itself: raw writes and socket options.
    pub fn stream(&self) -> &UnixStream {
        self.conn.get_ref()
    }
}

impl From<UnixStream> for Client {
    fn from(stream: UnixStream) -> Self {
        Client {
            conn: BufReader::new(stream),
            frame: Vec::new(),
        }
    }
}
