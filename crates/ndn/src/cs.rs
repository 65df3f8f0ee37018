//! The Content Store: an LRU cache of Data packets.
//!
//! Pervasive caching is the ICN fundamental TACTIC is built around — any
//! router holding a copy becomes a *content router* for that object and
//! must enforce access control on cache hits (paper §3.A).
//!
//! Eviction is strict least-recently-used. Entries live in a slab
//! (`Vec<Slot>`) threaded by an intrusive recency list and indexed by a
//! `HashMap<Name, u32>`, so insert, touch, evict and remove are all `O(1)`;
//! a full store evicts by overwriting its least-recently-used slot in
//! place.

use std::collections::HashMap;

use tactic_sim::time::SimTime;

use crate::name::Name;
use crate::packet::Data;

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// An LRU Data cache.
///
/// # Examples
///
/// ```
/// use tactic_ndn::cs::ContentStore;
/// use tactic_ndn::packet::{Data, Payload};
///
/// let mut cs = ContentStore::new(2);
/// cs.insert(Data::new("/a".parse()?, Payload::Synthetic(10)));
/// cs.insert(Data::new("/b".parse()?, Payload::Synthetic(10)));
/// cs.get(&"/a".parse()?); // touch /a so /b becomes LRU
/// cs.insert(Data::new("/c".parse()?, Payload::Synthetic(10)));
/// assert!(cs.get(&"/a".parse()?).is_some());
/// assert!(cs.get(&"/b".parse()?).is_none()); // evicted
/// # Ok::<(), tactic_ndn::name::ParseNameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContentStore {
    capacity: usize,
    /// Every cached packet, densely packed; `index` maps each name to its
    /// slot.
    slots: Vec<Slot>,
    index: HashMap<Name, u32>,
    /// Most recently used slot (`NIL` when empty).
    head: u32,
    /// Least recently used slot: the next victim (`NIL` when empty).
    tail: u32,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    data: Data,
    inserted: SimTime,
    /// The next more recently used slot.
    newer: u32,
    /// The next less recently used slot.
    older: u32,
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets. A capacity of 0
    /// disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        ContentStore {
            capacity,
            slots: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { newer, older, .. } = self.slots[i as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Links detached slot `i` in as the most recently used.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let slot = &mut self.slots[i as usize];
        slot.newer = NIL;
        slot.older = old_head;
        match old_head {
            NIL => self.tail = i,
            h => self.slots[h as usize].newer = i,
        }
        self.head = i;
    }

    /// Marks slot `i` as the most recently used.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts (or refreshes) a Data packet, evicting the LRU entry if at
    /// capacity. Equivalent to [`insert_at`](Self::insert_at) at time zero
    /// (callers that don't use freshness semantics).
    pub fn insert(&mut self, data: Data) {
        self.insert_at(data, SimTime::ZERO);
    }

    /// Inserts a Data packet, recording `now` as its arrival time for
    /// freshness accounting.
    pub fn insert_at(&mut self, data: Data, now: SimTime) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(data.name()) {
            let slot = &mut self.slots[i as usize];
            slot.data = data;
            slot.inserted = now;
            self.touch(i);
            return;
        }
        let name = data.name().clone();
        let i = if self.slots.len() < self.capacity {
            let i = u32::try_from(self.slots.len()).expect("fewer than u32::MAX cached packets");
            self.slots.push(Slot {
                data,
                inserted: now,
                newer: NIL,
                older: NIL,
            });
            self.push_front(i);
            i
        } else {
            let i = self.tail;
            let slot = &mut self.slots[i as usize];
            let victim = std::mem::replace(&mut slot.data, data);
            slot.inserted = now;
            self.index.remove(victim.name());
            self.touch(i);
            i
        };
        self.index.insert(name, i);
    }

    /// Exact-name lookup; touches the entry on hit and updates hit/miss
    /// counters.
    pub fn get(&mut self, name: &Name) -> Option<&Data> {
        let Some(&i) = self.index.get(name) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(i);
        Some(&self.slots[i as usize].data)
    }

    /// Like [`get`](Self::get), but honours NDN's `MustBeFresh`: an entry
    /// whose [`Data::freshness_ms`] is nonzero only matches within that
    /// period of its insertion (`freshness_ms == 0` means always fresh, as
    /// documented on [`Data`]). Stale entries count as misses and are
    /// evicted.
    pub fn get_fresh(&mut self, name: &Name, now: SimTime) -> Option<&Data> {
        let stale = match self.index.get(name) {
            None => {
                self.misses += 1;
                return None;
            }
            Some(&i) => {
                let e = &self.slots[i as usize];
                let f = e.data.freshness_ms();
                f != 0
                    && now.saturating_since(e.inserted)
                        > tactic_sim::time::SimDuration::from_millis(f as u64)
            }
        };
        if stale {
            self.remove(name);
            self.misses += 1;
            return None;
        }
        self.get(name)
    }

    /// Exact-name peek without touching LRU order or counters.
    pub fn peek(&self, name: &Name) -> Option<&Data> {
        self.index.get(name).map(|&i| &self.slots[i as usize].data)
    }

    /// Removes an entry; returns whether it existed. The last slot moves
    /// into the freed one, so the slab stays dense.
    pub fn remove(&mut self, name: &Name) -> bool {
        let Some(i) = self.index.remove(name) else {
            return false;
        };
        self.unlink(i);
        self.slots.swap_remove(i as usize);
        if let Some(moved) = self.slots.get(i as usize) {
            let (newer, older) = (moved.newer, moved.older);
            *self
                .index
                .get_mut(moved.data.name())
                .expect("every slot is indexed") = i;
            match newer {
                NIL => self.head = i,
                n => self.slots[n as usize].older = i,
            }
            match older {
                NIL => self.tail = i,
                o => self.slots[o as usize].newer = i,
            }
        }
        true
    }

    /// Current number of cached packets.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits observed by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all lookups (0 if none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn data(s: &str) -> Data {
        Data::new(s.parse().unwrap(), Payload::Synthetic(100))
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_get() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/a"));
        assert!(cs.get(&name("/a")).is_some());
        assert!(cs.get(&name("/b")).is_none());
        assert_eq!(cs.hits(), 1);
        assert_eq!(cs.misses(), 1);
        assert_eq!(cs.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cs = ContentStore::new(3);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.insert(data("/c"));
        cs.get(&name("/a")); // /b is now LRU
        cs.insert(data("/d"));
        assert!(cs.peek(&name("/a")).is_some());
        assert!(cs.peek(&name("/b")).is_none());
        assert!(cs.peek(&name("/c")).is_some());
        assert!(cs.peek(&name("/d")).is_some());
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_entry() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.insert(data("/a")); // refresh /a; /b becomes LRU
        cs.insert(data("/c"));
        assert!(cs.peek(&name("/a")).is_some());
        assert!(cs.peek(&name("/b")).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cs = ContentStore::new(0);
        cs.insert(data("/a"));
        assert!(cs.is_empty());
        assert!(cs.get(&name("/a")).is_none());
    }

    #[test]
    fn peek_does_not_touch() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        cs.insert(data("/b"));
        cs.peek(&name("/a")); // must NOT protect /a
        cs.insert(data("/c"));
        assert!(cs.peek(&name("/a")).is_none());
        assert_eq!(cs.hits(), 0);
    }

    #[test]
    fn remove_works() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"));
        assert!(cs.remove(&name("/a")));
        assert!(!cs.remove(&name("/a")));
        assert!(cs.is_empty());
    }

    #[test]
    fn freshness_is_honoured_by_get_fresh() {
        let mut cs = ContentStore::new(4);
        let mut d = data("/fresh");
        d.set_freshness_ms(1_000);
        cs.insert_at(d, SimTime::from_secs(10));
        // Within the freshness period: a hit.
        assert!(cs
            .get_fresh(&name("/fresh"), SimTime::from_secs_f64(10.5))
            .is_some());
        // Past it: a miss, and the stale entry is evicted.
        assert!(cs
            .get_fresh(&name("/fresh"), SimTime::from_secs(12))
            .is_none());
        assert!(cs.peek(&name("/fresh")).is_none(), "stale entry evicted");
    }

    #[test]
    fn zero_freshness_means_always_fresh() {
        let mut cs = ContentStore::new(4);
        cs.insert_at(data("/eternal"), SimTime::ZERO);
        assert!(cs
            .get_fresh(&name("/eternal"), SimTime::from_secs(1_000_000))
            .is_some());
    }

    #[test]
    fn plain_get_ignores_freshness() {
        let mut cs = ContentStore::new(4);
        let mut d = data("/stale-ok");
        d.set_freshness_ms(1);
        cs.insert_at(d, SimTime::ZERO);
        assert!(
            cs.get(&name("/stale-ok")).is_some(),
            "get is freshness-agnostic"
        );
    }

    /// The `HashMap` + `BTreeMap` use-stamp store the slab replaced, kept
    /// as the reference the slab must match operation for operation.
    mod reference {
        use std::collections::{BTreeMap, HashMap};

        use tactic_sim::time::{SimDuration, SimTime};

        use crate::name::Name;
        use crate::packet::Data;

        pub struct StampStore {
            capacity: usize,
            entries: HashMap<Name, (Data, u64, SimTime)>,
            order: BTreeMap<u64, Name>,
            clock: u64,
            pub hits: u64,
            pub misses: u64,
            /// Every evicted name, in eviction order.
            pub victims: Vec<Name>,
        }

        impl StampStore {
            pub fn new(capacity: usize) -> Self {
                StampStore {
                    capacity,
                    entries: HashMap::new(),
                    order: BTreeMap::new(),
                    clock: 0,
                    hits: 0,
                    misses: 0,
                    victims: Vec::new(),
                }
            }

            fn next_stamp(&mut self) -> u64 {
                self.clock += 1;
                self.clock
            }

            pub fn insert_at(&mut self, data: Data, now: SimTime) {
                if self.capacity == 0 {
                    return;
                }
                let name = data.name().clone();
                let stamp = self.next_stamp();
                if let Some(old) = self.entries.insert(name.clone(), (data, stamp, now)) {
                    self.order.remove(&old.1);
                }
                self.order.insert(stamp, name);
                while self.entries.len() > self.capacity {
                    let (&oldest, _) = self.order.iter().next().expect("non-empty order");
                    let victim = self.order.remove(&oldest).expect("indexed name");
                    self.entries.remove(&victim);
                    self.victims.push(victim);
                }
            }

            pub fn get(&mut self, name: &Name) -> Option<&Data> {
                if !self.entries.contains_key(name) {
                    self.misses += 1;
                    return None;
                }
                self.hits += 1;
                let stamp = self.next_stamp();
                let entry = self.entries.get_mut(name).expect("checked above");
                self.order.remove(&entry.1);
                entry.1 = stamp;
                self.order.insert(stamp, name.clone());
                Some(&entry.0)
            }

            pub fn get_fresh(&mut self, name: &Name, now: SimTime) -> Option<&Data> {
                let stale = match self.entries.get(name) {
                    None => {
                        self.misses += 1;
                        return None;
                    }
                    Some((d, _, inserted)) => {
                        let f = d.freshness_ms();
                        f != 0
                            && now.saturating_since(*inserted) > SimDuration::from_millis(f as u64)
                    }
                };
                if stale {
                    self.remove(name);
                    self.misses += 1;
                    return None;
                }
                self.get(name)
            }

            pub fn peek(&self, name: &Name) -> Option<&Data> {
                self.entries.get(name).map(|e| &e.0)
            }

            pub fn remove(&mut self, name: &Name) -> bool {
                if let Some(old) = self.entries.remove(name) {
                    self.order.remove(&old.1);
                    true
                } else {
                    false
                }
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }
        }
    }

    #[test]
    fn slab_matches_the_stamp_store_reference() {
        use tactic_sim::rng::Rng;

        for capacity in [0, 1, 2, 7, 300] {
            for seed in 0..3u64 {
                let mut rng = Rng::seed_from_u64(seed * 1_000 + capacity as u64);
                // A universe a little larger than the store, so inserts
                // both refresh and evict.
                let universe: Vec<Name> = (0..capacity + capacity / 2 + 3)
                    .map(|i| name(&format!("/p/obj{i}")))
                    .collect();
                let mut cs = ContentStore::new(capacity);
                let mut reference = reference::StampStore::new(capacity);
                let mut victims = Vec::new();
                let mut now = SimTime::ZERO;
                for step in 0..3_000 {
                    now += tactic_sim::time::SimDuration::from_millis(rng.below(40));
                    let n = rng.choose(&universe).clone();
                    let ctx = format!("capacity {capacity}, seed {seed}, step {step}, {n}");
                    match rng.below(10) {
                        op @ 0..=4 => {
                            let mut d =
                                Data::new(n.clone(), Payload::Synthetic(rng.below_usize(64)));
                            d.set_freshness_ms([0, 0, 50, 200][rng.below_usize(4)]);
                            let before: Vec<&Name> =
                                universe.iter().filter(|u| cs.peek(u).is_some()).collect();
                            let at = if op < 2 { SimTime::ZERO } else { now };
                            if op < 2 {
                                cs.insert(d.clone());
                            } else {
                                cs.insert_at(d.clone(), at);
                            }
                            reference.insert_at(d, at);
                            victims.extend(
                                before.into_iter().filter(|u| cs.peek(u).is_none()).cloned(),
                            );
                        }
                        5 | 6 => assert_eq!(cs.get(&n), reference.get(&n), "get: {ctx}"),
                        7 => assert_eq!(
                            cs.get_fresh(&n, now),
                            reference.get_fresh(&n, now),
                            "get_fresh: {ctx}"
                        ),
                        8 => assert_eq!(cs.peek(&n), reference.peek(&n), "peek: {ctx}"),
                        _ => assert_eq!(cs.remove(&n), reference.remove(&n), "remove: {ctx}"),
                    }
                    assert_eq!(cs.len(), reference.len(), "len: {ctx}");
                    assert_eq!(cs.hits(), reference.hits, "hits: {ctx}");
                    assert_eq!(cs.misses(), reference.misses, "misses: {ctx}");
                    assert_eq!(victims, reference.victims, "victims: {ctx}");
                }
                for u in &universe {
                    assert_eq!(cs.peek(u), reference.peek(u), "final {u}");
                }
                if capacity > 0 {
                    assert!(!victims.is_empty(), "capacity {capacity} never evicted");
                }
            }
        }
    }

    #[test]
    fn stress_capacity_respected() {
        let mut cs = ContentStore::new(50);
        for i in 0..1_000 {
            cs.insert(data(&format!("/obj/{i}")));
            assert!(cs.len() <= 50);
        }
        // The newest 50 must all be present.
        for i in 950..1_000 {
            assert!(
                cs.peek(&name(&format!("/obj/{i}"))).is_some(),
                "missing /obj/{i}"
            );
        }
    }
}
