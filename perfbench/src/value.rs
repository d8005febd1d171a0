//! Self-checking values and the record of what was written and acked.
//!
//! Every value encodes its key and a per-key write version, followed by
//! filler derived from both, so a read can be checked on its own: it
//! must name its own key, carry the expected filler, and hold a version
//! between the last write acked before the read was sent and the last
//! write sent before it completed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes per value: key (8) + version (8) + filler.
pub const VALUE_LEN: usize = 100;
/// Bytes per key: a big-endian `u64`.
pub const KEY_LEN: usize = 8;
/// Filler bytes drawn from a hash; the rest repeat a short pattern, so
/// values compress roughly as real records do (neither all-noise nor
/// all-zero).
const NOISE_LEN: usize = 72;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub fn key_bytes(key: u64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

pub fn key_of(bytes: &[u8]) -> Result<u64, String> {
    let arr: [u8; KEY_LEN] = bytes
        .try_into()
        .map_err(|_| format!("key of {} bytes, expected {KEY_LEN}", bytes.len()))?;
    Ok(u64::from_be_bytes(arr))
}

fn fill(key: u64, version: u64, out: &mut [u8]) {
    let mut state = splitmix(key ^ version.rotate_left(32));
    for chunk in out[..NOISE_LEN].chunks_mut(8) {
        state = splitmix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
    let pattern = (key % 26) as u8 + b'a';
    for (i, byte) in out[NOISE_LEN..].iter_mut().enumerate() {
        *byte = pattern + (i % 4) as u8;
    }
}

pub fn encode(key: u64, version: u64) -> Vec<u8> {
    let mut value = vec![0u8; VALUE_LEN];
    value[..8].copy_from_slice(&key.to_be_bytes());
    value[8..16].copy_from_slice(&version.to_be_bytes());
    fill(key, version, &mut value[16..]);
    value
}

/// Checks `value` belongs to `key` and returns its version.
pub fn decode(key: u64, value: &[u8]) -> Result<u64, String> {
    if value.len() != VALUE_LEN {
        return Err(format!("key {key}: value of {} bytes", value.len()));
    }
    let stored_key = u64::from_be_bytes(value[..8].try_into().expect("8 bytes"));
    if stored_key != key {
        return Err(format!("key {key}: value belongs to key {stored_key}"));
    }
    let version = u64::from_be_bytes(value[8..16].try_into().expect("8 bytes"));
    let mut expected = [0u8; VALUE_LEN - 16];
    fill(key, version, &mut expected);
    if value[16..] != expected {
        return Err(format!("key {key}: corrupt filler at version {version}"));
    }
    Ok(version)
}

/// Per-key versions: the newest sent and the newest acked.
///
/// Keys below `preloaded` start at version 1 (sent and acked) without
/// an entry. Only one connection writes, so per-key versions are sent
/// in order and acks arrive in order.
#[derive(Debug, Default)]
pub struct Versions {
    preloaded: u64,
    written: Mutex<HashMap<u64, (u64, u64)>>,
    /// One past the highest key written so far.
    frontier: AtomicU64,
}

impl Versions {
    pub fn preloaded(keys: u64) -> Self {
        Self {
            preloaded: keys,
            written: Mutex::default(),
            frontier: AtomicU64::new(keys),
        }
    }

    fn lookup(&self, map: &HashMap<u64, (u64, u64)>, key: u64) -> (u64, u64) {
        match map.get(&key) {
            Some(&v) => v,
            None if key < self.preloaded => (1, 1),
            None => (0, 0),
        }
    }

    /// The version the next write of `key` carries; marks it sent.
    pub fn send_write(&self, key: u64) -> u64 {
        let mut map = self.written.lock().expect("versions poisoned");
        let (sent, acked) = self.lookup(&map, key);
        map.insert(key, (sent + 1, acked));
        self.frontier.fetch_max(key + 1, Ordering::Relaxed);
        sent + 1
    }

    pub fn ack_write(&self, key: u64, version: u64) {
        let mut map = self.written.lock().expect("versions poisoned");
        let (sent, acked) = self.lookup(&map, key);
        map.insert(key, (sent, acked.max(version)));
    }

    /// Records a write applied outside the connections (bulk loads).
    pub fn applied(&self, key: u64) -> u64 {
        let version = self.send_write(key);
        self.ack_write(key, version);
        version
    }

    /// The newest acked version of `key` (0: never acked).
    pub fn acked(&self, key: u64) -> u64 {
        let map = self.written.lock().expect("versions poisoned");
        self.lookup(&map, key).1
    }

    /// The newest acked versions of `count` keys from `start`.
    pub fn acked_range(&self, start: u64, count: u64) -> Vec<u64> {
        let map = self.written.lock().expect("versions poisoned");
        (start..start.saturating_add(count))
            .map(|k| self.lookup(&map, k).1)
            .collect()
    }

    /// Checks a read of `key` that returned `value` (None: not found),
    /// given the acked version when it was sent.
    pub fn check_read(
        &self,
        key: u64,
        value: Option<&[u8]>,
        acked_at_send: u64,
    ) -> Result<(), String> {
        let sent_now = {
            let map = self.written.lock().expect("versions poisoned");
            self.lookup(&map, key).0
        };
        match value {
            None if acked_at_send == 0 => Ok(()),
            None => Err(format!(
                "key {key}: not found, but version {acked_at_send} was acked before the read"
            )),
            Some(bytes) => {
                let version = decode(key, bytes)?;
                if version < acked_at_send {
                    Err(format!(
                        "key {key}: read version {version}, older than acked {acked_at_send}"
                    ))
                } else if version > sent_now {
                    Err(format!(
                        "key {key}: read version {version}, never written (newest sent {sent_now})"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    pub fn frontier(&self) -> u64 {
        self.frontier.load(Ordering::Relaxed)
    }

    /// Every key with an acked write, and that version.
    pub fn all_acked(&self) -> Vec<(u64, u64)> {
        let map = self.written.lock().expect("versions poisoned");
        let mut out: Vec<(u64, u64)> = (0..self.preloaded)
            .filter(|k| !map.contains_key(k))
            .map(|k| (k, 1))
            .chain(map.iter().filter(|(_, v)| v.1 > 0).map(|(&k, v)| (k, v.1)))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let value = encode(42, 7);
        assert_eq!(value.len(), VALUE_LEN);
        assert_eq!(decode(42, &value), Ok(7));
        assert!(decode(43, &value).is_err());
        let mut bad = value.clone();
        bad[50] ^= 1;
        assert!(decode(42, &bad).is_err());
        assert!(decode(42, &value[..99]).is_err());
    }

    #[test]
    fn reads_must_fall_between_acked_and_sent() {
        let versions = Versions::preloaded(10);
        assert_eq!(versions.acked(3), 1);
        assert_eq!(versions.acked(10), 0);
        let v = versions.send_write(3);
        assert_eq!(v, 2);
        assert!(versions.check_read(3, Some(&encode(3, 2)), 1).is_ok());
        versions.ack_write(3, v);
        assert_eq!(versions.acked(3), 2);
        assert!(versions.check_read(3, Some(&encode(3, 1)), 2).is_err());
        assert!(versions.check_read(3, Some(&encode(3, 3)), 2).is_err());
        assert!(versions.check_read(3, None, 2).is_err());
        assert!(versions.check_read(11, None, 0).is_ok());
        assert_eq!(versions.frontier(), 10);
        versions.applied(12);
        assert_eq!(versions.frontier(), 13);
        assert_eq!(versions.all_acked().len(), 11);
    }
}
