//! Authentication tags — TACTIC's central artifact.
//!
//! "A tag is a 6-tuple composed of the provider's public key locator
//! (`Pub_p`), the client's public key locator (`Pub_u`), the client's
//! access level (`AL_u`), the client's access path (`AP_u`), and an expiry
//! time (`T_e`)" (§4.A), signed by the provider to guarantee integrity and
//! provenance. Tag expiry is the revocation mechanism: a revoked client
//! simply stops receiving fresh tags.

use tactic_crypto::hash::Digest256;
use tactic_crypto::schnorr::{KeyPair, PublicKey, Signature};
use tactic_ndn::name::Name;
use tactic_sim::time::SimTime;

use crate::access::AccessLevel;
use crate::access_path::AccessPath;

/// The unsigned tag body `T_p^u = <Pub_p, AL_u, Pub_u, AP_u, T_e>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tag {
    /// The provider's public key locator (`Pub_p`): a name whose first
    /// component is the provider's routable prefix.
    pub provider_key_locator: Name,
    /// The client's granted access level (`AL_u`).
    pub access_level: AccessLevel,
    /// The client's public key locator (`Pub_u`).
    pub client_key_locator: Name,
    /// The access path frozen at registration (`AP_u`).
    pub access_path: AccessPath,
    /// Expiry instant (`T_e`); the tag is invalid at and after this time.
    pub expiry: SimTime,
}

impl Tag {
    /// The provider's name prefix `N(Pub_p)` — the first component of the
    /// key locator, used by the Protocol 1 edge pre-check.
    pub fn provider_prefix(&self) -> Name {
        self.provider_key_locator.prefix(1)
    }

    /// True if the tag has expired at `now` (`T_e < T_current` in
    /// Protocol 1; we treat `T_e == now` as expired too).
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.expiry <= now
    }

    /// Canonical byte serialisation (also the signed message).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        let p = self.provider_key_locator.to_bytes();
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&p);
        out.push(self.access_level.to_byte());
        let c = self.client_key_locator.to_bytes();
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(&c);
        out.extend_from_slice(&self.access_path.as_u64().to_le_bytes());
        out.extend_from_slice(&self.expiry.as_nanos().to_le_bytes());
        out
    }

    /// Signs the tag, producing a [`SignedTag`].
    pub fn sign(self, provider: &KeyPair) -> SignedTag {
        let signature = provider.sign(&self.to_bytes());
        SignedTag::new(self, signature)
    }
}

/// A provider-signed tag as carried in Interests.
///
/// Carries lazily-computed caches of its Bloom key, client identity and
/// serialized form, so a shared (`Arc`ed, interned) tag pays for each
/// derivation once. The caches are dropped by `clone()` and ignored by
/// `==`. Mutating `tag`/`signature` *after* calling
/// [`bloom_key`](Self::bloom_key), [`client_identity`](Self::client_identity)
/// or [`encoded`](Self::encoded) on the same instance is unsupported —
/// tests that forge tags must mutate a fresh clone before first use (all
/// do).
#[derive(Debug)]
pub struct SignedTag {
    /// The tag body.
    pub tag: Tag,
    /// The provider's signature over [`Tag::to_bytes`].
    pub signature: Signature,
    bloom_key: std::sync::OnceLock<[u8; 32]>,
    client_identity: std::sync::OnceLock<u64>,
    encoded: std::sync::OnceLock<std::sync::Arc<[u8]>>,
}

impl Clone for SignedTag {
    fn clone(&self) -> Self {
        // Deliberately start the clone with cold caches: the clone-then-
        // forge pattern mutates the copy's fields, and a carried cache
        // would silently describe the pre-mutation tag.
        SignedTag::new(self.tag.clone(), self.signature)
    }
}

impl PartialEq for SignedTag {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag && self.signature == other.signature
    }
}

impl Eq for SignedTag {}

impl SignedTag {
    /// Assembles a signed tag from its body and signature.
    pub fn new(tag: Tag, signature: Signature) -> Self {
        SignedTag {
            tag,
            signature,
            bloom_key: std::sync::OnceLock::new(),
            client_identity: std::sync::OnceLock::new(),
            encoded: std::sync::OnceLock::new(),
        }
    }

    /// Verifies the provider signature.
    pub fn verify(&self, provider_key: &PublicKey) -> bool {
        provider_key.verify(&self.tag.to_bytes(), &self.signature)
    }

    /// The Bloom-filter key identifying this exact signed tag: a digest
    /// over body *and* signature, so forged signatures on a copied body
    /// map to different filter bits. Computed once per instance.
    pub fn bloom_key(&self) -> [u8; 32] {
        *self.bloom_key.get_or_init(|| {
            let body = self.tag.to_bytes();
            Digest256::of_parts(&[&body, &self.signature.to_bytes()]).to_bytes()
        })
    }

    /// The provider-prefix bytes the validation cache partitions on:
    /// the first component of the provider key locator, borrowed
    /// without allocation (hot path — called once per cache insert and
    /// lookup). Empty for a rootless locator.
    pub fn partition_key(&self) -> &[u8] {
        self.tag
            .provider_key_locator
            .get(0)
            .map_or(&[], |c| c.as_bytes())
    }

    /// The stable client identity of this tag: a digest of the client key
    /// locator. Stable across tag refreshes, so access points can
    /// demultiplex deliveries per requester and traitor tracing can link
    /// sightings of the same principal. Computed once per instance.
    pub fn client_identity(&self) -> u64 {
        *self
            .client_identity
            .get_or_init(|| Digest256::of(&self.tag.client_key_locator.to_bytes()).fold64())
    }

    /// Serialises tag + signature for the Interest extension / PIT note.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.tag.to_bytes();
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// The [`encode`](Self::encode) form as a shared buffer, serialized
    /// once per instance — attaching an interned tag to a packet is a
    /// refcount bump.
    pub fn encoded(&self) -> std::sync::Arc<[u8]> {
        self.encoded.get_or_init(|| self.encode().into()).clone()
    }

    /// Parses the [`encode`](Self::encode) form.
    ///
    /// # Errors
    ///
    /// Returns [`TagDecodeError`] on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> Result<SignedTag, TagDecodeError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], TagDecodeError> {
            let s = bytes.get(*pos..*pos + n).ok_or(TagDecodeError)?;
            *pos += n;
            Ok(s)
        };
        let plen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let pbytes = take(&mut pos, plen)?.to_vec();
        let provider_key_locator = name_from_bytes(&pbytes)?;
        let al = AccessLevel::from_byte(take(&mut pos, 1)?[0]);
        let clen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
        let cbytes = take(&mut pos, clen)?.to_vec();
        let client_key_locator = name_from_bytes(&cbytes)?;
        let ap = AccessPath::from_u64(u64::from_le_bytes(
            take(&mut pos, 8)?.try_into().expect("8"),
        ));
        let expiry = SimTime::from_nanos(u64::from_le_bytes(
            take(&mut pos, 8)?.try_into().expect("8"),
        ));
        let sig = Signature::from_bytes(take(&mut pos, 16)?.try_into().expect("16"));
        if pos != bytes.len() {
            return Err(TagDecodeError);
        }
        Ok(SignedTag::new(
            Tag {
                provider_key_locator,
                access_level: al,
                client_key_locator,
                access_path: ap,
                expiry,
            },
            sig,
        ))
    }
}

/// Error decoding a serialized tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagDecodeError;

impl std::fmt::Display for TagDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed serialized tag")
    }
}

impl std::error::Error for TagDecodeError {}

/// Inverse of [`Name::to_bytes`] (length-prefixed components).
fn name_from_bytes(bytes: &[u8]) -> Result<Name, TagDecodeError> {
    let mut comps = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(
            bytes
                .get(pos..pos + 4)
                .ok_or(TagDecodeError)?
                .try_into()
                .expect("4"),
        ) as usize;
        pos += 4;
        let c = bytes.get(pos..pos + len).ok_or(TagDecodeError)?;
        pos += len;
        comps.push(tactic_ndn::name::Component::new(c.to_vec()));
    }
    Ok(Name::from_components(comps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tag() -> Tag {
        Tag {
            provider_key_locator: "/prov3/KEY/k1".parse().unwrap(),
            access_level: AccessLevel::Level(2),
            client_key_locator: "/prov3/users/u7/KEY".parse().unwrap(),
            access_path: AccessPath::of([7, 42]),
            expiry: SimTime::from_secs(10),
        }
    }

    #[test]
    fn sign_and_verify() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let st = sample_tag().sign(&kp);
        assert!(st.verify(&kp.public()));
        let other = KeyPair::derive(b"/prov4", 0);
        assert!(!st.verify(&other.public()));
    }

    #[test]
    fn tampered_body_fails_verification() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let mut st = sample_tag().sign(&kp);
        st.tag.access_level = AccessLevel::Level(9);
        assert!(!st.verify(&kp.public()));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let st = sample_tag().sign(&kp);
        let bytes = st.encode();
        let back = SignedTag::decode(&bytes).unwrap();
        assert_eq!(back, st);
        assert!(back.verify(&kp.public()));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let bytes = sample_tag().sign(&kp).encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(SignedTag::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(SignedTag::decode(&padded).is_err());
    }

    #[test]
    fn provider_prefix_extraction() {
        assert_eq!(sample_tag().provider_prefix().to_string(), "/prov3");
    }

    #[test]
    fn expiry_check() {
        let t = sample_tag();
        assert!(!t.is_expired(SimTime::from_secs(9)));
        assert!(t.is_expired(SimTime::from_secs(10)));
        assert!(t.is_expired(SimTime::from_secs(11)));
    }

    #[test]
    fn bloom_key_distinguishes_signatures_on_same_body() {
        let kp = KeyPair::derive(b"/prov3", 0);
        let genuine = sample_tag().sign(&kp);
        let forged = SignedTag::new(sample_tag(), Signature::forged(1));
        assert_ne!(genuine.bloom_key(), forged.bloom_key());
    }

    #[test]
    fn tag_is_a_couple_hundred_bytes() {
        // §4.A: "a tag [should] be a couple hundred bytes".
        let kp = KeyPair::derive(b"/prov3", 0);
        let len = sample_tag().sign(&kp).encode().len();
        assert!((50..300).contains(&len), "tag wire length {len}");
    }
}
