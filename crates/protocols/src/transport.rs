//! The datagram link between a fuzzing client and a protocol server.
//!
//! Every fuzzed message crosses a [`DatagramLink`]: one isolated
//! `cmfuzz-netsim` namespace per campaign instance, optionally with
//! seeded link impairments. [`NetworkedTarget`](crate::NetworkedTarget)
//! is its only consumer; the campaign runner and the bench harness never
//! talk to sockets directly.

use cmfuzz_fuzzer::state_codec::{StateReader, StateWriter};
use cmfuzz_fuzzer::StartError;
use cmfuzz_netsim::{Addr, Datagram, DatagramSocket, LinkConditions, Network};

fn write_datagram(w: &mut StateWriter, datagram: &Datagram) {
    w.u32(datagram.src.host());
    w.u16(datagram.src.port());
    w.u32(datagram.dst.host());
    w.u16(datagram.dst.port());
    w.bytes(&datagram.payload);
}

fn read_datagram(r: &mut StateReader<'_>) -> Datagram {
    let src = Addr::new(r.u32(), r.u16());
    let dst = Addr::new(r.u32(), r.u16());
    Datagram {
        src,
        dst,
        payload: r.bytes().to_vec(),
    }
}

/// Well-known server address inside each instance namespace.
pub(crate) const SERVER_ADDR: Addr = Addr::new(1, 9000);
/// Well-known fuzzing-client address inside each instance namespace.
pub(crate) const CLIENT_ADDR: Addr = Addr::new(2, 40000);

/// The campaign link: one isolated [`Network`] namespace per instance
/// (the paper's `ip netns`), with a datagram socket pair and optional
/// seeded link impairments.
///
/// The lifecycle mirrors a daemon's listening socket: [`open`] (re)binds
/// both endpoints after the server boots, [`close`] releases them, and
/// while closed every send and receive is inert. Unimpaired links deliver
/// every datagram exactly once, in order; impaired links drop, duplicate
/// and reorder datagrams following the network's seeded RNG, so a lossy
/// campaign is still reproducible byte-for-byte from its seed.
///
/// [`open`]: DatagramLink::open
/// [`close`]: DatagramLink::close
///
/// # Examples
///
/// ```
/// use cmfuzz_netsim::LinkConditions;
/// use cmfuzz_protocols::DatagramLink;
///
/// let mut link = DatagramLink::with_conditions(
///     "instance-0",
///     LinkConditions::new(0.1, 0.0, 0.0),
///     7,
/// );
/// link.open()?;
/// assert!(link.client_send(b"maybe"));
/// // ...the datagram arrives, or the seeded loss model ate it.
/// # Ok::<(), cmfuzz_fuzzer::StartError>(())
/// ```
#[derive(Debug)]
pub struct DatagramLink {
    network: Network,
    server: Option<DatagramSocket>,
    client: Option<DatagramSocket>,
    /// Fixed at construction: perfect links never draw impairment RNG, so
    /// burst sends are safe; impaired links must send datagram by
    /// datagram to keep the RNG stream aligned.
    lossless: bool,
    /// Reused across [`DatagramLink::server_recv_many`] drains so a batch
    /// drain costs one queue lock and no fresh allocation.
    recv_scratch: Vec<Datagram>,
}

impl DatagramLink {
    /// A perfect-link namespace named after the instance.
    #[must_use]
    pub fn new(namespace: &str) -> Self {
        DatagramLink {
            network: Network::new(namespace),
            server: None,
            client: None,
            lossless: true,
            recv_scratch: Vec::new(),
        }
    }

    /// A namespace whose link drops/duplicates/reorders datagrams
    /// following `conditions`, driven by the RNG seeded with `seed`.
    #[must_use]
    pub fn with_conditions(namespace: &str, conditions: LinkConditions, seed: u64) -> Self {
        DatagramLink {
            network: Network::with_conditions(namespace, conditions, seed),
            server: None,
            client: None,
            lossless: conditions.is_perfect(),
            recv_scratch: Vec::new(),
        }
    }

    /// The namespace this link runs in.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Tears down any previous endpoints and (re)binds both.
    ///
    /// # Errors
    ///
    /// Returns a [`StartError`] of kind
    /// [`Transport`](cmfuzz_fuzzer::StartErrorKind::Transport) when an
    /// endpoint's address is taken.
    pub fn open(&mut self) -> Result<(), StartError> {
        // Release any previous endpoints first so rebinding the
        // well-known addresses cannot collide with our own stale sockets.
        self.close();
        let server = self
            .network
            .bind_datagram(SERVER_ADDR)
            .map_err(|e| StartError::transport(&format!("bind failed: {e}")))?;
        let client = self
            .network
            .bind_datagram(CLIENT_ADDR)
            .map_err(|e| StartError::transport(&format!("client bind failed: {e}")))?;
        self.server = Some(server);
        self.client = Some(client);
        Ok(())
    }

    /// Releases both endpoints; traffic is dropped until the next
    /// [`DatagramLink::open`].
    pub fn close(&mut self) {
        self.server = None;
        self.client = None;
    }

    /// Whether both endpoints are bound.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.server.is_some() && self.client.is_some()
    }

    /// Client → wire → server. Returns `false` on hard failure (link
    /// closed); a lossy link that drops the datagram still returns `true`,
    /// like UDP.
    pub fn client_send(&mut self, payload: &[u8]) -> bool {
        match &self.client {
            Some(client) => client.send_to(SERVER_ADDR, payload).is_ok(),
            None => false,
        }
    }

    /// Whether every datagram arrives exactly once, in order, without
    /// drawing impairment RNG. Only then is a burst of sends observably
    /// identical to interleaved send/receive.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.lossless
    }

    /// Client → wire → server for a burst of payloads stored back-to-back
    /// in `arena`, each addressed by an `(offset, len)` range, under one
    /// queue lock. Returns `false` when the link is closed.
    pub fn client_send_batch(&mut self, arena: &[u8], ranges: &[(u32, u32)]) -> bool {
        match &self.client {
            Some(client) => client.send_many_to(SERVER_ADDR, arena, ranges).is_ok(),
            None => false,
        }
    }

    /// Next datagram pending at the server, if any.
    pub fn server_recv(&mut self) -> Option<Vec<u8>> {
        self.server
            .as_ref()
            .and_then(DatagramSocket::try_recv)
            .map(|datagram| datagram.payload)
    }

    /// Delivers up to `max` pending server-side datagrams to `each`, in
    /// arrival order, under one queue lock. Returns how many were
    /// delivered — the same payloads, in the same order, as that many
    /// [`DatagramLink::server_recv`] calls.
    pub fn server_recv_many(&mut self, max: usize, mut each: impl FnMut(&[u8])) -> usize {
        let Some(server) = &self.server else {
            return 0;
        };
        self.recv_scratch.clear();
        let received = server.recv_many(&mut self.recv_scratch, max);
        for datagram in &self.recv_scratch {
            each(&datagram.payload);
        }
        self.recv_scratch.clear();
        received
    }

    /// Server → wire → client. Same contract as
    /// [`DatagramLink::client_send`].
    pub fn server_send(&mut self, payload: &[u8]) -> bool {
        match &self.server {
            Some(server) => server.send_to(CLIENT_ADDR, payload).is_ok(),
            None => false,
        }
    }

    /// Next datagram pending at the client, if any.
    pub fn client_recv(&mut self) -> Option<Vec<u8>> {
        self.client
            .as_ref()
            .and_then(DatagramSocket::try_recv)
            .map(|datagram| datagram.payload)
    }

    /// Exports the link's mutable state (impairment RNG position,
    /// held-back and in-flight datagrams) as opaque bytes for
    /// checkpointing. Destructive — it drains both receive queues — so
    /// callers discard the link afterwards. A freshly opened link that
    /// imports these bytes behaves identically to the exporting one.
    pub fn export_state(&mut self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.bool(self.is_open());
        let (rng, held) = self.network.export_link_state();
        for word in rng {
            w.u64(word);
        }
        w.option(held.as_ref(), write_datagram);
        // Drain both receive queues (destructive: these sockets are done).
        // Queued datagrams are already past the impairment model, so on
        // import they re-enter via `Network::inject`, not `send_to` —
        // keeping the restored RNG stream aligned with the original run.
        for socket in [&self.server, &self.client] {
            let mut drained = Vec::new();
            if let Some(socket) = socket {
                while let Some(datagram) = socket.try_recv() {
                    drained.push(datagram);
                }
            }
            w.usize(drained.len());
            for datagram in &drained {
                write_datagram(&mut w, datagram);
            }
        }
        w.finish()
    }

    /// Restores state captured by [`DatagramLink::export_state`] into a
    /// freshly opened link.
    pub fn import_state(&mut self, state: &[u8]) {
        let mut r = StateReader::new(state);
        let was_open = r.bool();
        let rng = [r.u64(), r.u64(), r.u64(), r.u64()];
        let held = r.option(read_datagram);
        self.network.restore_link_state(rng, held);
        for _ in 0..2 {
            for _ in 0..r.usize() {
                // Best-effort like delivery itself: if the exporting link
                // was open this link is open too (the boot sequence opens
                // before importing), so injection cannot miss its socket.
                let _ = self.network.inject(read_datagram(&mut r));
            }
        }
        r.finish();
        if !was_open {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz_fuzzer::StartErrorKind;

    fn round_trip(link: &mut DatagramLink) {
        assert!(link.client_send(b"req"));
        assert_eq!(link.server_recv().as_deref(), Some(&b"req"[..]));
        assert!(link.server_send(b"resp"));
        assert_eq!(link.client_recv().as_deref(), Some(&b"resp"[..]));
        assert!(link.server_recv().is_none());
        assert!(link.client_recv().is_none());
    }

    #[test]
    fn datagram_link_round_trips() {
        let mut link = DatagramLink::new("t");
        assert!(!link.is_open());
        link.open().unwrap();
        assert!(link.is_open());
        round_trip(&mut link);
    }

    #[test]
    fn closed_links_are_inert() {
        let link = &mut DatagramLink::new("t");
        assert!(!link.client_send(b"x"));
        assert!(!link.server_send(b"x"));
        assert!(link.server_recv().is_none());
        assert!(link.client_recv().is_none());
    }

    #[test]
    fn close_drops_in_flight_traffic_and_releases_addresses() {
        let mut link = DatagramLink::new("t");
        link.open().unwrap();
        assert!(link.client_send(b"lost"));
        link.close();
        assert!(link.server_recv().is_none());
        // Addresses are free again: an outside socket can claim them.
        let stranger = link.network().bind_datagram(SERVER_ADDR).unwrap();
        drop(stranger);
        // And reopening rebinds cleanly afterwards.
        link.open().unwrap();
        round_trip(&mut link);
    }

    #[test]
    fn open_reports_transport_kind_when_an_address_is_taken() {
        let link_net = DatagramLink::new("t");
        let _squatter = link_net.network().bind_datagram(SERVER_ADDR).unwrap();
        let mut link = DatagramLink {
            network: link_net.network().clone(),
            server: None,
            client: None,
            lossless: true,
            recv_scratch: Vec::new(),
        };
        let err = link.open().unwrap_err();
        assert_eq!(err.kind(), StartErrorKind::Transport);
        assert!(err.reason().contains("bind failed"));
        assert!(!link.is_open());
    }

    #[test]
    fn impaired_datagram_link_checkpoint_resumes_identically() {
        let conditions = LinkConditions::new(0.2, 0.3, 0.3);
        let drive = |link: &mut DatagramLink, from: u8, to: u8| -> Vec<u8> {
            let mut got = Vec::new();
            for n in from..to {
                assert!(link.client_send(&[n]));
                while let Some(d) = link.server_recv() {
                    got.push(d[0]);
                }
            }
            got
        };

        // Uninterrupted reference.
        let mut reference = DatagramLink::with_conditions("ref", conditions, 42);
        reference.open().unwrap();
        let mut expected = drive(&mut reference, 0, 12);
        // Leave some traffic undrained across the checkpoint boundary.
        assert!(reference.client_send(&[99]));
        expected.extend(drive(&mut reference, 12, 24));

        // Same sequence, checkpointed right after the undrained send.
        let mut first = DatagramLink::with_conditions("first", conditions, 42);
        first.open().unwrap();
        let mut observed = drive(&mut first, 0, 12);
        assert!(first.client_send(&[99]));
        let state = first.export_state();
        drop(first);

        let mut resumed = DatagramLink::with_conditions("resumed", conditions, 0);
        resumed.open().unwrap();
        resumed.import_state(&state);
        observed.extend(drive(&mut resumed, 12, 24));
        assert_eq!(observed, expected);
    }

    #[test]
    fn losslessness_reflects_link_conditions() {
        assert!(DatagramLink::new("t").is_lossless());
        assert!(DatagramLink::with_conditions("t", LinkConditions::perfect(), 1).is_lossless());
        assert!(
            !DatagramLink::with_conditions("t", LinkConditions::new(0.1, 0.0, 0.0), 1)
                .is_lossless()
        );
    }

    #[test]
    fn batch_send_matches_sequential_sends() {
        let arena = b"reqAreqBreqC";
        let ranges = [(0u32, 4u32), (4, 4), (8, 4)];
        let link = &mut DatagramLink::new("t");
        assert!(!link.client_send_batch(arena, &ranges), "closed link");
        link.open().unwrap();
        assert!(link.client_send_batch(arena, &ranges));
        let mut got = Vec::new();
        while let Some(d) = link.server_recv() {
            got.push(d);
        }
        assert_eq!(
            got,
            vec![b"reqA".to_vec(), b"reqB".to_vec(), b"reqC".to_vec()]
        );
    }

    #[test]
    fn impaired_datagram_link_is_seeded_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut link =
                DatagramLink::with_conditions("t", LinkConditions::new(0.5, 0.0, 0.0), seed);
            link.open().unwrap();
            (0..64)
                .map(|_| {
                    assert!(link.client_send(b"x"));
                    link.server_recv().is_some()
                })
                .collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
