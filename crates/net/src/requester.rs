//! The shared Zipf-window workload driver.
//!
//! Every mechanism is evaluated under the same consumer behaviour: walk a
//! Zipf-ranked object catalog chunk by chunk, keep a fixed window of
//! requests in flight, retry nothing (lost chunks are abandoned — matching
//! an attacker hammering or a client moving on after expiry). Mechanisms
//! that need richer consumers (TACTIC's tag-handling clients) implement
//! their own, but the plain requester lives here so baseline planes and
//! test planes don't each grow a copy.
//!
//! Resilience experiments can opt into Interest retransmission via
//! [`RetransmitPolicy`]: expired chunks are re-requested with a fresh
//! nonce under capped binary exponential backoff, and chunks that exhaust
//! their retries are counted as given up instead of silently abandoned.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest};
use tactic_sim::dist::Zipf;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};

use crate::fault::RetransmitPolicy;

/// One provider's slice of the content catalog.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The provider's prefix.
    pub prefix: Name,
    /// Objects in the catalog.
    pub objects: usize,
    /// Chunks per object.
    pub chunks: usize,
}

/// A network's content catalog and the Zipf popularity over its global
/// object ranking.
///
/// Every requester in a network walks the same catalog with the same
/// skew, so a plane builds this once per network and hands each
/// requester an `Arc` of it; only the RNG stream a requester draws from
/// is its own.
#[derive(Debug)]
pub struct Catalog {
    entries: Vec<CatalogEntry>,
    zipf: Zipf,
}

impl Catalog {
    /// The catalog over `entries` (provider order) with popularity skew
    /// `zipf_alpha` over the concatenated object ranking.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or holds no object.
    pub fn new(entries: Vec<CatalogEntry>, zipf_alpha: f64) -> Self {
        assert!(!entries.is_empty(), "catalog needs a provider");
        let total_objects = entries.iter().map(|c| c.objects).sum::<usize>();
        Catalog {
            zipf: Zipf::new(total_objects, zipf_alpha),
            entries,
        }
    }

    /// The per-provider entries, in provider order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// The popularity skew α.
    pub fn zipf_alpha(&self) -> f64 {
        self.zipf.alpha()
    }

    /// Draws one object by popularity: `(provider index, object)`.
    pub fn draw(&self, rng: &mut Rng) -> (usize, usize) {
        let mut rank = self.zipf.sample(rng);
        for (i, c) in self.entries.iter().enumerate() {
            if rank < c.objects {
                return (i, rank);
            }
            rank -= c.objects;
        }
        unreachable!("a Zipf rank is below the total object count")
    }
}

/// Static configuration for one [`ZipfRequester`].
#[derive(Debug, Clone)]
pub struct RequesterConfig {
    /// The node's principal identity (used in nonces and, when
    /// `per_session_names` is set, in names).
    pub principal: u64,
    /// Whether this requester counts as a legitimate client in reports.
    pub is_client: bool,
    /// Requests kept in flight.
    pub window: usize,
    /// Request expiry (also stamped as the Interest lifetime).
    pub timeout: SimDuration,
    /// Append a `/u<principal>` component so every request is
    /// per-session-unique (defeats caching; provider-auth baselines).
    pub per_session_names: bool,
    /// Optional Interest retransmission (`None` = the paper's no-retry
    /// clients: expired chunks are abandoned).
    pub retransmit: Option<RetransmitPolicy>,
}

/// One in-flight request: when its latest Interest went out and how many
/// attempts (0 = original only) have been made.
#[derive(Debug, Clone, Copy)]
struct Flight {
    sent: SimTime,
    attempts: u32,
}

/// Builds a globally-unique Interest nonce: the principal in the top 24
/// bits, the requester's send counter in the low 40.
///
/// The fields are disjoint, so nonces from different principals can never
/// collide — unlike the historical `(principal << 24) ^ counter`, whose
/// counter bled into the principal bits once a requester passed 2²⁴
/// sends, aliasing principals in million-Interest runs. A requester would
/// need 2⁴⁰ (≈10¹²) sends to overflow its field; debug builds assert
/// both fields stay in range.
fn compose_nonce(principal: u64, counter: u64) -> u64 {
    debug_assert!(principal < 1 << 24, "principal exceeds its 24-bit field");
    debug_assert!(counter < 1 << 40, "send counter exceeds its 40-bit field");
    (principal << 40) | counter
}

/// A window-driven Zipf requester over a chunked content catalog.
#[derive(Debug)]
pub struct ZipfRequester {
    /// The node's principal identity.
    pub principal: u64,
    /// Whether this requester counts as a legitimate client in reports.
    pub is_client: bool,
    window: usize,
    timeout: SimDuration,
    rng: Rng,
    catalog: Arc<Catalog>,
    per_session_names: bool,
    retransmit: Option<RetransmitPolicy>,
    current: Option<(usize, usize, usize)>,
    retry: VecDeque<(usize, usize, usize)>,
    in_flight: HashMap<Name, Flight>,
    nonce: u64,
    /// Chunks requested so far (original requests only, not retries).
    pub requested: u64,
    /// Chunks received so far.
    pub received: u64,
    /// Payload bytes received so far.
    pub received_bytes: u64,
    /// Request expiries that fired on a still-current attempt.
    pub timeouts: u64,
    /// Interests retransmitted after an expiry.
    pub retransmitted: u64,
    /// Chunks abandoned after exhausting their retransmission budget.
    pub gave_up: u64,
    /// Per-chunk `(receive time, latency seconds)` records.
    pub latencies: Vec<(SimTime, f64)>,
}

impl ZipfRequester {
    /// Creates a requester over `catalog` (usually its network's shared
    /// one) with its own RNG stream.
    pub fn new(config: RequesterConfig, catalog: Arc<Catalog>, rng: Rng) -> Self {
        ZipfRequester {
            principal: config.principal,
            is_client: config.is_client,
            window: config.window,
            timeout: config.timeout,
            rng,
            catalog,
            per_session_names: config.per_session_names,
            retransmit: config.retransmit,
            current: None,
            retry: VecDeque::new(),
            in_flight: HashMap::new(),
            nonce: 0,
            requested: 0,
            received: 0,
            received_bytes: 0,
            timeouts: 0,
            retransmitted: 0,
            gave_up: 0,
            latencies: Vec::new(),
        }
    }

    fn chunk_name(&self, prov: usize, obj: usize, chunk: usize) -> Name {
        let base = self.catalog.entries()[prov]
            .prefix
            .child(format!("obj{obj}"))
            .child(format!("c{chunk}"));
        if self.per_session_names {
            base.child(format!("u{}", self.principal))
        } else {
            base
        }
    }

    fn next_work(&mut self) -> (usize, usize, usize) {
        if let Some(w) = self.retry.pop_front() {
            return w;
        }
        match self.current {
            Some((p, o, c)) if c < self.catalog.entries()[p].chunks => {
                self.current = Some((p, o, c + 1));
                (p, o, c)
            }
            _ => {
                let (prov, obj) = self.catalog.draw(&mut self.rng);
                self.current = Some((prov, obj, 1));
                (prov, obj, 0)
            }
        }
    }

    /// Tops the in-flight window up; returns the Interests to transmit.
    pub fn fill(&mut self, now: SimTime) -> Vec<Interest> {
        let mut out = Vec::new();
        while self.in_flight.len() < self.window {
            let (p, o, c) = self.next_work();
            let name = self.chunk_name(p, o, c);
            if self.in_flight.contains_key(&name) {
                continue;
            }
            self.nonce += 1;
            let mut i = Interest::new(name.clone(), compose_nonce(self.principal, self.nonce));
            i.set_lifetime_ms((self.timeout.as_nanos() / 1_000_000) as u32);
            self.requested += 1;
            self.in_flight.insert(
                name,
                Flight {
                    sent: now,
                    attempts: 0,
                },
            );
            out.push(i);
        }
        out
    }

    /// Records a delivered chunk and refills the window.
    pub fn on_data(&mut self, d: &Data, now: SimTime) -> Vec<Interest> {
        if let Some(flight) = self.in_flight.remove(d.name()) {
            self.received += 1;
            self.received_bytes += d.payload().len() as u64;
            self.latencies
                .push((now, now.saturating_since(flight.sent).as_secs_f64()));
        }
        self.fill(now)
    }

    /// Expires a request if its *latest* attempt is the one sent at
    /// `sent`: a stale expiry (the chunk was since retransmitted or
    /// completed) is a no-op and counts nothing. A current expiry either
    /// retransmits under the configured policy (fresh nonce, backed-off
    /// lifetime) or abandons the chunk and refills the window.
    pub fn on_timeout(&mut self, name: &Name, sent: SimTime, now: SimTime) -> Vec<Interest> {
        if !matches!(self.in_flight.get(name), Some(f) if f.sent == sent) {
            return Vec::new();
        }
        self.timeouts += 1;
        if let Some(policy) = self.retransmit {
            let flight = self.in_flight.get_mut(name).expect("checked above");
            if flight.attempts < policy.max_retries {
                flight.attempts += 1;
                flight.sent = now;
                let attempts = flight.attempts;
                self.nonce += 1;
                self.retransmitted += 1;
                let mut i = Interest::new(name.clone(), compose_nonce(self.principal, self.nonce));
                let lifetime = policy.timeout_for(self.timeout, attempts);
                i.set_lifetime_ms((lifetime.as_nanos() / 1_000_000) as u32);
                return vec![i];
            }
            self.gave_up += 1;
        }
        self.in_flight.remove(name);
        self.fill(now)
    }

    /// A handover re-attached this requester: requests in flight across
    /// the old radio link are written off (their timeouts will fire as
    /// no-ops) and the window refills from the new location.
    pub fn on_move(&mut self, now: SimTime) -> Vec<Interest> {
        self.in_flight.clear();
        self.fill(now)
    }

    /// The per-request expiry this requester stamps on its Interests.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// The expiry to schedule for the Interest currently in flight for
    /// `name`: the base timeout scaled by the retransmission backoff of
    /// its attempt count (the base timeout for unknown names or when
    /// retransmission is off).
    pub fn timeout_for(&self, name: &Name) -> SimDuration {
        match (self.retransmit, self.in_flight.get(name)) {
            (Some(policy), Some(f)) => policy.timeout_for(self.timeout, f.attempts),
            _ => self.timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requester_with(per_session: bool, retransmit: Option<RetransmitPolicy>) -> ZipfRequester {
        ZipfRequester::new(
            RequesterConfig {
                principal: 7,
                is_client: true,
                window: 4,
                timeout: SimDuration::from_secs(2),
                per_session_names: per_session,
                retransmit,
            },
            Arc::new(Catalog::new(
                vec![CatalogEntry {
                    prefix: "/prov0".parse().unwrap(),
                    objects: 5,
                    chunks: 3,
                }],
                0.8,
            )),
            Rng::seed_from_u64(1),
        )
    }

    fn requester(per_session: bool) -> ZipfRequester {
        requester_with(per_session, None)
    }

    #[test]
    fn nonces_never_collide_across_principals_past_2_24_sends() {
        // The historical `(principal << 24) ^ counter` aliased principals
        // once a counter crossed 2²⁴: principal 0's send 2²⁴+c produced
        // principal 1's send c. Walk both counters through dense windows
        // around every 2²⁴ boundary up to 2²⁶ — the exact collision
        // pattern — and require global uniqueness.
        let mut seen = std::collections::HashSet::new();
        let windows = (0u64..=4).map(|k| {
            let base = k << 24;
            base.saturating_sub(512)..base + 512
        });
        for counters in windows {
            for c in counters {
                for principal in [0u64, 1, 2, (1 << 24) - 1] {
                    assert!(
                        seen.insert(compose_nonce(principal, c)),
                        "nonce collision at principal {principal}, counter {c}"
                    );
                }
            }
        }
        // And the disjoint-field argument holds structurally: the
        // principal occupies bits the counter can never reach.
        assert_eq!(compose_nonce(3, 0) >> 40, 3);
        assert_eq!(compose_nonce(0, (1 << 40) - 1) >> 40, 0);
    }

    #[test]
    fn a_shared_catalog_draws_what_a_private_one_draws() {
        let entries = || {
            ["/prov0", "/prov1", "/prov2"]
                .map(|p| CatalogEntry {
                    prefix: p.parse().unwrap(),
                    objects: 7,
                    chunks: 2,
                })
                .to_vec()
        };
        let config = |principal| RequesterConfig {
            principal,
            is_client: true,
            window: 4,
            timeout: SimDuration::from_secs(2),
            per_session_names: false,
            retransmit: None,
        };
        // Expire every request as it goes out; each expiry refills the
        // window from a fresh popularity draw.
        let expire_all = |r: &mut ZipfRequester| {
            let mut names = Vec::new();
            let mut sends: Vec<(Interest, SimTime)> = r
                .fill(SimTime::ZERO)
                .into_iter()
                .map(|i| (i, SimTime::ZERO))
                .collect();
            for round in 1..=25 {
                let now = SimTime::from_secs(round);
                let mut next = Vec::new();
                for (i, sent) in sends {
                    next.extend(
                        r.on_timeout(i.name(), sent, now)
                            .into_iter()
                            .map(|i| (i, now)),
                    );
                    names.push(i.name().clone());
                }
                sends = next;
            }
            names
        };
        // One catalog for both principals, as a network builds it,
        // against a catalog of each requester's own.
        let shared = Arc::new(Catalog::new(entries(), 0.8));
        for principal in [3, 7] {
            let rng = Rng::seed_from_u64(principal);
            let own = Arc::new(Catalog::new(entries(), 0.8));
            let mut private = ZipfRequester::new(config(principal), own, rng.clone());
            let mut sharing = ZipfRequester::new(config(principal), Arc::clone(&shared), rng);
            let drawn = expire_all(&mut private);
            assert_eq!(drawn.len(), 100);
            assert_eq!(drawn, expire_all(&mut sharing), "principal {principal}");
        }
    }

    #[test]
    fn fill_keeps_the_window_full() {
        let mut r = requester(false);
        let sends = r.fill(SimTime::ZERO);
        assert_eq!(sends.len(), 4);
        assert_eq!(r.requested, 4);
        assert!(r.fill(SimTime::ZERO).is_empty(), "window already full");
    }

    #[test]
    fn per_session_names_append_the_principal() {
        let mut r = requester(true);
        let sends = r.fill(SimTime::ZERO);
        for i in &sends {
            assert!(i.name().to_string().ends_with("/u7"), "{}", i.name());
        }
    }

    #[test]
    fn stale_timeouts_are_ignored() {
        let mut r = requester(false);
        let sends = r.fill(SimTime::ZERO);
        let name = sends[0].name().clone();
        // A timeout carrying the wrong sent-time is a no-op.
        assert!(r
            .on_timeout(&name, SimTime::from_secs(9), SimTime::from_secs(3))
            .is_empty());
        assert_eq!(r.timeouts, 0, "stale expiries count nothing");
        // The genuine one frees a slot and refills it.
        let refill = r.on_timeout(&name, SimTime::ZERO, SimTime::from_secs(3));
        assert_eq!(refill.len(), 1);
        assert_eq!(r.timeouts, 1);

        // A retransmitted chunk's *original* expiry is stale too: the
        // flight's sent-time moved to the retransmission instant, so the
        // old expiry must not double-count the chunk as lost.
        let mut r = requester_with(false, Some(RetransmitPolicy::default()));
        let sends = r.fill(SimTime::ZERO);
        let name = sends[0].name().clone();
        let t1 = SimTime::from_secs(2);
        let resend = r.on_timeout(&name, SimTime::ZERO, t1);
        assert_eq!(resend.len(), 1, "expiry retransmits the same chunk");
        assert_eq!(resend[0].name(), &name);
        assert!(r
            .on_timeout(&name, SimTime::ZERO, SimTime::from_secs(3))
            .is_empty());
        assert_eq!(
            (r.timeouts, r.retransmitted, r.gave_up),
            (1, 1, 0),
            "the original expiry after a retransmission is a no-op"
        );
        // The retransmission's own expiry is the current one.
        assert_eq!(r.on_timeout(&name, t1, SimTime::from_secs(6)).len(), 1);
        assert_eq!(r.timeouts, 2);
    }

    #[test]
    fn retransmission_backs_off_and_gives_up() {
        let policy = RetransmitPolicy {
            max_retries: 2,
            max_backoff_shift: 4,
        };
        let mut r = requester_with(false, Some(policy));
        let sends = r.fill(SimTime::ZERO);
        let name = sends[0].name().clone();
        let nonce0 = sends[0].nonce();
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(2));

        let resend = r.on_timeout(&name, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(resend.len(), 1);
        assert_ne!(resend[0].nonce(), nonce0, "retries carry fresh nonces");
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(4));

        let t1 = SimTime::from_secs(2);
        let resend2 = r.on_timeout(&name, t1, SimTime::from_secs(6));
        assert_eq!(resend2.len(), 1);
        assert_eq!(r.timeout_for(&name), SimDuration::from_secs(8));

        // Retries exhausted: the chunk is given up and the slot refills
        // with different work.
        let t2 = SimTime::from_secs(6);
        let refill = r.on_timeout(&name, t2, SimTime::from_secs(14));
        assert_eq!(refill.len(), 1);
        assert_ne!(refill[0].name(), &name, "given-up chunks are not retried");
        assert_eq!((r.retransmitted, r.gave_up), (2, 1));
        assert_eq!(
            r.timeout_for(&name),
            SimDuration::from_secs(2),
            "an unknown name falls back to the base timeout"
        );
        // `requested` counts original chunks only, never retries.
        assert_eq!(r.requested, 5);
    }

    #[test]
    fn data_records_latency() {
        let mut r = requester(false);
        let sends = r.fill(SimTime::ZERO);
        let d = Data::new(
            sends[0].name().clone(),
            tactic_ndn::packet::Payload::Synthetic(100),
        );
        let refill = r.on_data(&d, SimTime::from_secs_f64(0.25));
        assert_eq!(r.received, 1);
        assert_eq!(r.received_bytes, 100);
        assert_eq!(refill.len(), 1);
        assert!((r.latencies[0].1 - 0.25).abs() < 1e-9);
    }
}
