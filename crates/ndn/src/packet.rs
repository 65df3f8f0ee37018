//! NDN packet types: Interest, Data, and Nack.
//!
//! Packets carry an open-ended list of TLV **extensions** (`(type, bytes)`
//! pairs) so higher layers can attach fields without this crate knowing
//! about them — TACTIC rides its tag, flag `F`, and content-NACK marker in
//! extensions (see `tactic::ext`). Extension types `0x8000..` are reserved
//! for applications.

use std::sync::Arc;

use tactic_crypto::schnorr::Signature;

use crate::name::Name;

/// An extension TLV carried by a packet. The value bytes are shared:
/// cloning a packet (fan-out, caching) bumps refcounts instead of copying
/// every extension payload.
pub type Extension = (u16, Arc<[u8]>);

/// Looks up the first extension with the given type.
fn find_ext(exts: &[Extension], ty: u16) -> Option<&[u8]> {
    exts.iter().find(|(t, _)| *t == ty).map(|(_, v)| &v[..])
}

/// Replaces (or inserts) the extension with the given type.
fn set_ext(exts: &mut Vec<Extension>, ty: u16, value: Arc<[u8]>) {
    if let Some(slot) = exts.iter_mut().find(|(t, _)| *t == ty) {
        slot.1 = value;
    } else {
        exts.push((ty, value));
    }
}

/// An NDN Interest: a named request.
///
/// # Examples
///
/// ```
/// use tactic_ndn::packet::Interest;
///
/// let i = Interest::new("/prov/obj/0".parse()?, 42);
/// assert_eq!(i.name().to_string(), "/prov/obj/0");
/// assert_eq!(i.nonce(), 42);
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interest {
    name: Name,
    nonce: u64,
    lifetime_ms: u32,
    extensions: Vec<Extension>,
}

impl Interest {
    /// Default Interest lifetime (NDN's conventional 4 s is overridden by
    /// the paper's 1 s request expiry at clients; this is the packet-level
    /// default).
    pub const DEFAULT_LIFETIME_MS: u32 = 4_000;

    /// Creates an Interest for `name` with a caller-supplied nonce.
    pub fn new(name: Name, nonce: u64) -> Self {
        Interest {
            name,
            nonce,
            lifetime_ms: Self::DEFAULT_LIFETIME_MS,
            extensions: Vec::new(),
        }
    }

    /// The requested name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The loop-detection nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The Interest lifetime in milliseconds.
    pub fn lifetime_ms(&self) -> u32 {
        self.lifetime_ms
    }

    /// Sets the Interest lifetime.
    pub fn set_lifetime_ms(&mut self, ms: u32) {
        self.lifetime_ms = ms;
    }

    /// All extensions.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions
    }

    /// Reads an extension by type.
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        find_ext(&self.extensions, ty)
    }

    /// Sets an extension, replacing any previous value of the same type.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<Arc<[u8]>>) {
        set_ext(&mut self.extensions, ty, value.into());
    }

    /// Removes an extension; returns whether it was present.
    pub fn remove_extension(&mut self, ty: u16) -> bool {
        let before = self.extensions.len();
        self.extensions.retain(|(t, _)| *t != ty);
        self.extensions.len() != before
    }
}

/// The payload of a Data packet.
///
/// Simulated contents are usually `Synthetic(len)` — the bytes never exist,
/// only their length (which the link model charges). Tests and examples may
/// carry real `Bytes`; those are shared (`Arc`), so cloning a Data packet
/// never copies content bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A payload of the given length whose bytes are never materialised.
    Synthetic(usize),
    /// Actual bytes, shared between all clones of the packet.
    Bytes(std::sync::Arc<[u8]>),
}

impl Payload {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Synthetic(n) => *n,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Synthetic(0)
    }
}

/// An NDN Data packet: named, signed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    name: Name,
    payload: Payload,
    signature: Option<Signature>,
    freshness_ms: u32,
    extensions: Vec<Extension>,
}

impl Data {
    /// Creates a Data packet.
    pub fn new(name: Name, payload: Payload) -> Self {
        Data {
            name,
            payload,
            signature: None,
            freshness_ms: 0,
            extensions: Vec::new(),
        }
    }

    /// The content name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The provider signature over the packet, if signed.
    pub fn signature(&self) -> Option<&Signature> {
        self.signature.as_ref()
    }

    /// Attaches a signature.
    pub fn set_signature(&mut self, sig: Signature) {
        self.signature = Some(sig);
    }

    /// Freshness period in milliseconds (0 = always fresh).
    pub fn freshness_ms(&self) -> u32 {
        self.freshness_ms
    }

    /// Sets the freshness period.
    pub fn set_freshness_ms(&mut self, ms: u32) {
        self.freshness_ms = ms;
    }

    /// All extensions.
    pub fn extensions(&self) -> &[Extension] {
        &self.extensions
    }

    /// Reads an extension by type.
    pub fn extension(&self, ty: u16) -> Option<&[u8]> {
        find_ext(&self.extensions, ty)
    }

    /// Sets an extension, replacing any previous value of the same type.
    pub fn set_extension(&mut self, ty: u16, value: impl Into<Arc<[u8]>>) {
        set_ext(&mut self.extensions, ty, value.into());
    }

    /// Removes an extension; returns whether it was present.
    pub fn remove_extension(&mut self, ty: u16) -> bool {
        let before = self.extensions.len();
        self.extensions.retain(|(t, _)| *t != ty);
        self.extensions.len() != before
    }

    /// The bytes a provider signs: name + payload length + extensions that
    /// are part of the signed content (access level, key locator).
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut out = self.name.to_bytes();
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        let mut exts: Vec<&Extension> = self.extensions.iter().collect();
        exts.sort_by_key(|(t, _)| *t);
        for (t, v) in exts {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        out
    }
}

/// Reasons a Nack may be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NackReason {
    /// No FIB entry for the requested name.
    NoRoute,
    /// Nonce already seen (loop).
    Duplicate,
    /// TACTIC: the request's tag failed validation.
    InvalidTag,
    /// TACTIC: the access path in the request did not match the tag's.
    AccessPathMismatch,
}

impl std::fmt::Display for NackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NackReason::NoRoute => "no route",
            NackReason::Duplicate => "duplicate nonce",
            NackReason::InvalidTag => "invalid tag",
            NackReason::AccessPathMismatch => "access path mismatch",
        };
        f.write_str(s)
    }
}

/// A standalone network-layer Nack (distinct from TACTIC's content-attached
/// NACK marker, which rides as a Data extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    interest: Interest,
    reason: NackReason,
}

impl Nack {
    /// Creates a Nack for the given Interest.
    pub fn new(interest: Interest, reason: NackReason) -> Self {
        Nack { interest, reason }
    }

    /// The nacked Interest.
    pub fn interest(&self) -> &Interest {
        &self.interest
    }

    /// Why the Interest was nacked.
    pub fn reason(&self) -> NackReason {
        self.reason
    }
}

/// Any NDN packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A request.
    Interest(Interest),
    /// A content reply.
    Data(Data),
    /// A network-layer negative acknowledgement.
    Nack(Nack),
}

impl Packet {
    /// The name the packet pertains to.
    pub fn name(&self) -> &Name {
        match self {
            Packet::Interest(i) => i.name(),
            Packet::Data(d) => d.name(),
            Packet::Nack(n) => n.interest().name(),
        }
    }
}

impl From<Interest> for Packet {
    fn from(i: Interest) -> Self {
        Packet::Interest(i)
    }
}

impl From<Data> for Packet {
    fn from(d: Data) -> Self {
        Packet::Data(d)
    }
}

impl From<Nack> for Packet {
    fn from(n: Nack) -> Self {
        Packet::Nack(n)
    }
}

/// Hands `packet` to `send` once per target, in order. Every target but
/// the last gets a clone; the last takes the packet by move, so the
/// common single-receiver case copies nothing. An empty `targets` drops
/// the packet.
pub fn fan_out<T, P: Clone>(
    targets: impl IntoIterator<Item = T>,
    packet: P,
    mut send: impl FnMut(T, P),
) {
    let mut targets = targets.into_iter().peekable();
    while let Some(target) = targets.next() {
        if targets.peek().is_none() {
            send(target, packet);
            return;
        }
        send(target, packet.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_crypto::schnorr::KeyPair;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn fan_out_clones_for_all_but_the_last_target() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Counted(Rc<Cell<usize>>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.set(self.0.get() + 1);
                Counted(Rc::clone(&self.0))
            }
        }

        for (n, clones) in [(0, 0), (1, 0), (3, 2)] {
            let count = Rc::new(Cell::new(0));
            let mut seen = Vec::new();
            fan_out(0..n, Counted(Rc::clone(&count)), |t, _| seen.push(t));
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
            assert_eq!(count.get(), clones, "{n} targets");
        }
    }

    #[test]
    fn interest_extension_set_get_replace_remove() {
        let mut i = Interest::new(name("/a"), 1);
        assert_eq!(i.extension(0x8001), None);
        i.set_extension(0x8001, vec![1, 2]);
        assert_eq!(i.extension(0x8001), Some(&[1u8, 2][..]));
        i.set_extension(0x8001, vec![3]);
        assert_eq!(i.extension(0x8001), Some(&[3u8][..]));
        assert_eq!(i.extensions().len(), 1);
        assert!(i.remove_extension(0x8001));
        assert!(!i.remove_extension(0x8001));
    }

    #[test]
    fn payload_lengths() {
        assert_eq!(Payload::Synthetic(1024).len(), 1024);
        assert_eq!(Payload::Bytes(vec![0; 7].into()).len(), 7);
        assert!(Payload::default().is_empty());
    }

    #[test]
    fn data_signing_roundtrip() {
        let kp = KeyPair::derive(b"prov", 0);
        let mut d = Data::new(name("/prov/obj/0"), Payload::Synthetic(1024));
        d.set_extension(0x8002, vec![9]);
        let sig = kp.sign(&d.signable_bytes());
        d.set_signature(sig);
        assert!(kp
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
    }

    #[test]
    fn signable_bytes_cover_extensions_and_are_order_independent() {
        let mut a = Data::new(name("/x"), Payload::Synthetic(10));
        a.set_extension(1, vec![1]);
        a.set_extension(2, vec![2]);
        let mut b = Data::new(name("/x"), Payload::Synthetic(10));
        b.set_extension(2, vec![2]);
        b.set_extension(1, vec![1]);
        assert_eq!(a.signable_bytes(), b.signable_bytes());
        let mut c = b.clone();
        c.set_extension(2, vec![3]);
        assert_ne!(a.signable_bytes(), c.signable_bytes());
    }

    #[test]
    fn packet_names() {
        let i = Interest::new(name("/n"), 5);
        assert_eq!(Packet::from(i.clone()).name(), &name("/n"));
        let d = Data::new(name("/n"), Payload::default());
        assert_eq!(Packet::from(d).name(), &name("/n"));
        let nk = Nack::new(i, NackReason::NoRoute);
        assert_eq!(nk.reason(), NackReason::NoRoute);
        assert_eq!(Packet::from(nk).name(), &name("/n"));
    }

    #[test]
    fn nack_reason_display() {
        assert_eq!(NackReason::InvalidTag.to_string(), "invalid tag");
        assert_eq!(
            NackReason::AccessPathMismatch.to_string(),
            "access path mismatch"
        );
    }
}
