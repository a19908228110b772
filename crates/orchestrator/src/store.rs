//! An etcd-like revisioned key-value store (§5.5: "we use etcd as
//! fault-tolerant storage of job states").
//!
//! Every mutation bumps a global revision; gets report the revision a
//! value was last modified at, enabling optimistic concurrency
//! (compare-and-swap), and watchers receive every event after their
//! registration, in order.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A store revision (monotonically increasing, starts at 1).
pub type Revision = u64;

/// One change event delivered to watchers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    /// A key was created or updated.
    Put {
        /// The key.
        key: String,
        /// The new value.
        value: String,
        /// Revision of the mutation.
        revision: Revision,
    },
    /// A key was deleted.
    Delete {
        /// The key.
        key: String,
        /// Revision of the mutation.
        revision: Revision,
    },
}

impl WatchEvent {
    /// The key this event concerns.
    pub fn key(&self) -> &str {
        match self {
            WatchEvent::Put { key, .. } | WatchEvent::Delete { key, .. } => key,
        }
    }

    /// The revision of this event.
    pub fn revision(&self) -> Revision {
        match self {
            WatchEvent::Put { revision, .. } | WatchEvent::Delete { revision, .. } => *revision,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    data: BTreeMap<String, (String, Revision)>,
    revision: Revision,
    watchers: Vec<(String, Sender<WatchEvent>)>,
    /// Full event history, for `watch_from` replays (etcd keeps a
    /// compacted window; this in-process store keeps everything).
    history: Vec<WatchEvent>,
}

/// The revisioned KV store. Cheap to clone (shared state).
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    inner: Arc<RwLock<Inner>>,
}

impl KvStore {
    /// Creates an empty store at revision 0.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// The current (latest) revision.
    pub fn revision(&self) -> Revision {
        self.read().revision
    }

    /// Writes `key = value`, returning the mutation's revision.
    pub fn put(&self, key: impl Into<String>, value: impl Into<String>) -> Revision {
        let key = key.into();
        let value = value.into();
        let mut inner = self.write();
        inner.revision += 1;
        let rev = inner.revision;
        inner.data.insert(key.clone(), (value.clone(), rev));
        Self::notify(
            &mut inner,
            WatchEvent::Put {
                key,
                value,
                revision: rev,
            },
        );
        rev
    }

    /// Compare-and-swap: writes only if the key's current mod-revision
    /// equals `expected` (use 0 for "must not exist"). Returns the new
    /// revision on success, or `None` on conflict.
    pub fn cas(
        &self,
        key: impl Into<String>,
        value: impl Into<String>,
        expected: Revision,
    ) -> Option<Revision> {
        let key = key.into();
        let value = value.into();
        let mut inner = self.write();
        let current = inner.data.get(&key).map(|(_, r)| *r).unwrap_or(0);
        if current != expected {
            return None;
        }
        inner.revision += 1;
        let rev = inner.revision;
        inner.data.insert(key.clone(), (value.clone(), rev));
        Self::notify(
            &mut inner,
            WatchEvent::Put {
                key,
                value,
                revision: rev,
            },
        );
        Some(rev)
    }

    /// Reads a key: `(value, mod_revision)`.
    pub fn get(&self, key: &str) -> Option<(String, Revision)> {
        self.read().data.get(key).cloned()
    }

    /// Deletes a key; returns the mutation revision if it existed.
    pub fn delete(&self, key: &str) -> Option<Revision> {
        let mut inner = self.write();
        inner.data.remove(key)?;
        inner.revision += 1;
        let rev = inner.revision;
        Self::notify(
            &mut inner,
            WatchEvent::Delete {
                key: key.to_string(),
                revision: rev,
            },
        );
        Some(rev)
    }

    /// Lists all `(key, value, revision)` triples under a prefix, in key
    /// order.
    pub fn list(&self, prefix: &str) -> Vec<(String, String, Revision)> {
        self.read()
            .data
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, (v, r))| (k.clone(), v.clone(), *r))
            .collect()
    }

    /// Registers a watcher for all future events under `prefix`.
    pub fn watch(&self, prefix: impl Into<String>) -> Receiver<WatchEvent> {
        let (tx, rx) = channel();
        self.write().watchers.push((prefix.into(), tx));
        rx
    }

    /// Registers a watcher that first replays all historical events
    /// under `prefix` with revision > `from`, then streams future ones —
    /// etcd's `watch(key, rev)` semantics. A controller can therefore
    /// crash, remember the last revision it processed, and resume
    /// without missing events.
    pub fn watch_from(&self, prefix: impl Into<String>, from: Revision) -> Receiver<WatchEvent> {
        let prefix = prefix.into();
        let (tx, rx) = channel();
        let mut inner = self.write();
        for event in &inner.history {
            if event.revision() > from && event.key().starts_with(prefix.as_str()) {
                // Receiver is alive: we hold it in this scope.
                let _ = tx.send(event.clone());
            }
        }
        inner.watchers.push((prefix, tx));
        rx
    }

    /// Shared access to the state. A poisoned lock (a writer panicked
    /// mid-mutation) panics instead of exposing half-applied state.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner
            .read()
            .expect("KvStore lock poisoned (a writer panicked)")
    }

    /// Exclusive access to the state; panics on a poisoned lock, like
    /// [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner
            .write()
            .expect("KvStore lock poisoned (a writer panicked)")
    }

    fn notify(inner: &mut Inner, event: WatchEvent) {
        inner.history.push(event.clone());
        inner.watchers.retain(|(prefix, tx)| {
            !event.key().starts_with(prefix.as_str()) || tx.send(event.clone()).is_ok()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_with_revisions() {
        let s = KvStore::new();
        assert_eq!(s.revision(), 0);
        let r1 = s.put("a", "1");
        assert_eq!(r1, 1);
        let r2 = s.put("a", "2");
        assert_eq!(r2, 2);
        assert_eq!(s.get("a"), Some(("2".into(), 2)));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn cas_enforces_expectations() {
        let s = KvStore::new();
        // Create-if-absent.
        assert!(s.cas("k", "v1", 0).is_some());
        // Stale expectation fails.
        assert!(s.cas("k", "v2", 0).is_none());
        let (_, rev) = s.get("k").unwrap();
        assert!(s.cas("k", "v2", rev).is_some());
        assert_eq!(s.get("k").unwrap().0, "v2");
    }

    #[test]
    fn delete_and_list() {
        let s = KvStore::new();
        s.put("pods/a", "1");
        s.put("pods/b", "2");
        s.put("nodes/x", "3");
        let pods = s.list("pods/");
        assert_eq!(pods.len(), 2);
        assert_eq!(pods[0].0, "pods/a");
        assert!(s.delete("pods/a").is_some());
        assert!(s.delete("pods/a").is_none());
        assert_eq!(s.list("pods/").len(), 1);
    }

    #[test]
    fn watchers_see_prefixed_events_in_order() {
        let s = KvStore::new();
        let rx = s.watch("pods/");
        s.put("pods/a", "1");
        s.put("nodes/x", "ignored");
        s.put("pods/a", "2");
        s.delete("pods/a");
        let events: Vec<WatchEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[0], WatchEvent::Put { value, .. } if value == "1"));
        assert!(matches!(&events[1], WatchEvent::Put { value, .. } if value == "2"));
        assert!(matches!(&events[2], WatchEvent::Delete { .. }));
        assert!(events.windows(2).all(|w| w[0].revision() < w[1].revision()));
    }

    #[test]
    fn watch_from_replays_history_then_streams() {
        let s = KvStore::new();
        s.put("pods/a", "1"); // rev 1
        s.put("pods/b", "2"); // rev 2
        s.put("nodes/x", "3"); // rev 3 (different prefix)
        s.delete("pods/a"); // rev 4

        // Resume from revision 1: must replay revs 2 and 4 (pods/ only),
        // then receive live events.
        let rx = s.watch_from("pods/", 1);
        s.put("pods/c", "5"); // rev 5, live
        let events: Vec<WatchEvent> = rx.try_iter().collect();
        let revs: Vec<Revision> = events.iter().map(|e| e.revision()).collect();
        assert_eq!(revs, vec![2, 4, 5]);
        assert!(matches!(&events[1], WatchEvent::Delete { key, .. } if key == "pods/a"));
    }

    #[test]
    fn watch_from_zero_replays_everything() {
        let s = KvStore::new();
        s.put("k/a", "1");
        s.put("k/b", "2");
        let rx = s.watch_from("k/", 0);
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn watch_from_latest_replays_nothing() {
        let s = KvStore::new();
        s.put("k/a", "1");
        let rx = s.watch_from("k/", s.revision());
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn dropped_watchers_are_pruned() {
        let s = KvStore::new();
        {
            let _rx = s.watch("pods/");
        } // receiver dropped
        s.put("pods/a", "1"); // must not panic; watcher pruned
        assert_eq!(s.get("pods/a").unwrap().0, "1");
    }

    #[test]
    #[should_panic(expected = "KvStore lock poisoned")]
    fn a_poisoned_lock_panics() {
        let s = KvStore::new();
        let inner = Arc::clone(&s.inner);
        let writer = std::thread::spawn(move || {
            let _guard = inner.write().unwrap();
            panic!("writer dies holding the lock");
        });
        assert!(writer.join().is_err());
        s.revision();
    }

    #[test]
    fn store_clone_shares_state() {
        let s = KvStore::new();
        let s2 = s.clone();
        s.put("k", "v");
        assert_eq!(s2.get("k").unwrap().0, "v");
    }
}
