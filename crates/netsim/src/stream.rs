//! TCP-like byte-stream transport.

use std::fmt;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::network::lock;
use crate::{Addr, NetError, Network};

/// One end of a bidirectional, ordered, reliable byte stream.
///
/// Streams are in-memory and lossless (TCP semantics); link impairments
/// apply only to datagram transport, matching how the paper's targets see
/// the network.
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::{Addr, Network};
///
/// # fn main() -> Result<(), cmfuzz_netsim::NetError> {
/// let net = Network::new("ns");
/// let listener = net.listen_stream(Addr::new(1, 1883))?;
/// let mut client = net.connect_stream(Addr::new(2, 50000), Addr::new(1, 1883))?;
/// let mut server = listener.try_accept().expect("pending connection");
///
/// client.send(b"CONNECT")?;
/// assert_eq!(server.try_read(), b"CONNECT");
/// server.send(b"CONNACK")?;
/// assert_eq!(client.try_read(), b"CONNACK");
/// # Ok(())
/// # }
/// ```
pub struct StreamConn {
    local: Addr,
    peer: Addr,
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    buffer: Vec<u8>,
}

impl StreamConn {
    /// Local address of this end.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.local
    }

    /// Address of the remote end.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.peer
    }

    /// Writes `bytes` to the stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the peer end was dropped.
    pub fn send(&self, bytes: &[u8]) -> Result<(), NetError> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| NetError::Disconnected)
    }

    /// Reads all bytes currently available, without blocking.
    ///
    /// Returns an empty vector when nothing is pending; stream framing is
    /// the receiver's job, as with real TCP.
    pub fn try_read(&mut self) -> Vec<u8> {
        while let Ok(chunk) = self.rx.try_recv() {
            self.buffer.extend_from_slice(&chunk);
        }
        std::mem::take(&mut self.buffer)
    }

    /// Whether the peer end has been dropped and no data remains.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.rx.is_empty() && self.buffer.is_empty() && self.tx.send(Vec::new()).is_err()
    }
}

impl fmt::Debug for StreamConn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamConn")
            .field("local", &self.local)
            .field("peer", &self.peer)
            .finish()
    }
}

/// Accepts incoming [`StreamConn`]s at a fixed address.
///
/// Dropping the listener releases its address; connections already accepted
/// stay alive.
pub struct StreamListener {
    addr: Addr,
    incoming: Receiver<StreamConn>,
    net: Network,
}

impl StreamListener {
    /// Address this listener is bound at.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Accepts the next pending connection, if any.
    #[must_use]
    pub fn try_accept(&self) -> Option<StreamConn> {
        self.incoming.try_recv().ok()
    }

    /// Number of connections waiting to be accepted.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.incoming.len()
    }
}

impl Drop for StreamListener {
    fn drop(&mut self) {
        lock(&self.net.inner.listeners).remove(&self.addr);
    }
}

impl fmt::Debug for StreamListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamListener")
            .field("addr", &self.addr)
            .field("pending", &self.incoming.len())
            .finish()
    }
}

pub(crate) fn listen(net: &Network, addr: Addr) -> Result<StreamListener, NetError> {
    let mut listeners = lock(&net.inner.listeners);
    if listeners.contains_key(&addr) {
        return Err(NetError::AddrInUse(addr));
    }
    let (tx, rx) = unbounded();
    listeners.insert(addr, tx);
    Ok(StreamListener {
        addr,
        incoming: rx,
        net: net.clone(),
    })
}

pub(crate) fn connect(net: &Network, local: Addr, remote: Addr) -> Result<StreamConn, NetError> {
    let listeners = lock(&net.inner.listeners);
    let acceptor = listeners
        .get(&remote)
        .ok_or(NetError::ConnectionRefused(remote))?;

    let (client_tx, server_rx) = unbounded();
    let (server_tx, client_rx) = unbounded();
    let server_end = StreamConn {
        local: remote,
        peer: local,
        tx: server_tx,
        rx: server_rx,
        buffer: Vec::new(),
    };
    acceptor
        .send(server_end)
        .map_err(|_| NetError::ConnectionRefused(remote))?;
    Ok(StreamConn {
        local,
        peer: remote,
        tx: client_tx,
        rx: client_rx,
        buffer: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(net: &Network) -> (StreamConn, StreamConn) {
        let listener = net.listen_stream(Addr::new(1, 80)).unwrap();
        let client = net
            .connect_stream(Addr::new(2, 9000), Addr::new(1, 80))
            .unwrap();
        let server = listener.try_accept().unwrap();
        (client, server)
    }

    #[test]
    fn bidirectional_bytes_flow() {
        let net = Network::new("t");
        let (mut client, mut server) = pair(&net);
        client.send(b"hel").unwrap();
        client.send(b"lo").unwrap();
        assert_eq!(server.try_read(), b"hello");
        server.send(b"ok").unwrap();
        assert_eq!(client.try_read(), b"ok");
        assert_eq!(client.try_read(), b"");
    }

    #[test]
    fn addresses_are_symmetric() {
        let net = Network::new("t");
        let (client, server) = pair(&net);
        assert_eq!(client.local_addr(), server.peer_addr());
        assert_eq!(client.peer_addr(), server.local_addr());
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let net = Network::new("t");
        assert_eq!(
            net.connect_stream(Addr::new(2, 1), Addr::new(1, 80))
                .unwrap_err(),
            NetError::ConnectionRefused(Addr::new(1, 80))
        );
    }

    #[test]
    fn double_listen_fails() {
        let net = Network::new("t");
        let _l = net.listen_stream(Addr::new(1, 80)).unwrap();
        assert_eq!(
            net.listen_stream(Addr::new(1, 80)).unwrap_err(),
            NetError::AddrInUse(Addr::new(1, 80))
        );
    }

    #[test]
    fn listener_drop_releases_address() {
        let net = Network::new("t");
        {
            let _l = net.listen_stream(Addr::new(1, 80)).unwrap();
        }
        assert!(net.listen_stream(Addr::new(1, 80)).is_ok());
    }

    #[test]
    fn peer_drop_detected() {
        let net = Network::new("t");
        let (client, server) = pair(&net);
        assert!(!client.is_closed());
        drop(server);
        assert!(client.is_closed());
    }

    #[test]
    fn send_after_peer_drop_errors() {
        let net = Network::new("t");
        let (client, server) = pair(&net);
        drop(server);
        assert_eq!(client.send(b"x").unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn multiple_connections_queue_in_order() {
        let net = Network::new("t");
        let listener = net.listen_stream(Addr::new(1, 80)).unwrap();
        let _c1 = net
            .connect_stream(Addr::new(2, 1), Addr::new(1, 80))
            .unwrap();
        let _c2 = net
            .connect_stream(Addr::new(3, 1), Addr::new(1, 80))
            .unwrap();
        assert_eq!(listener.pending(), 2);
        assert_eq!(listener.try_accept().unwrap().peer_addr(), Addr::new(2, 1));
        assert_eq!(listener.try_accept().unwrap().peer_addr(), Addr::new(3, 1));
        assert!(listener.try_accept().is_none());
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let net = Network::new("t");
        let listener = net.listen_stream(Addr::new(1, 80)).unwrap();
        let client = net
            .connect_stream(Addr::new(2, 1), Addr::new(1, 80))
            .unwrap();
        assert!(format!("{listener:?}").contains("StreamListener"));
        assert!(format!("{client:?}").contains("StreamConn"));
    }
}
