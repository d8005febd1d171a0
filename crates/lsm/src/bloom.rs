//! A blocked-free classic Bloom filter for sstable key membership.
//!
//! Each sstable carries a Bloom filter over its user keys so point reads
//! can skip runs that certainly do not contain the key. This matters for
//! the paper's motivation: before compaction a read may touch many runs,
//! and the filter is what keeps the miss cost bounded in practice.

use bytes::{BufMut, Bytes, BytesMut};

use crate::Error;

/// A Bloom filter with double hashing (Kirsch–Mitzenmacher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    num_hashes: u32,
}

impl BloomFilter {
    /// Builds a filter over `keys` using `bits_per_key` bits of budget per
    /// key. A `bits_per_key` of 10 gives roughly a 1 % false-positive rate.
    /// Passing `bits_per_key = 0` or an empty key set produces an empty
    /// filter that reports every key as possibly present.
    #[must_use]
    pub fn build<'a, I>(keys: I, bits_per_key: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: ExactSizeIterator,
    {
        let hashes: Vec<u64> = keys.into_iter().map(key_hash).collect();
        Self::from_key_hashes(&hashes, bits_per_key)
    }

    /// [`BloomFilter::build`] over keys already reduced by [`key_hash`]
    /// — what the sstable builder keeps instead of the keys themselves.
    pub(crate) fn from_key_hashes(hashes: &[u64], bits_per_key: usize) -> Self {
        let n = hashes.len();
        if n == 0 || bits_per_key == 0 {
            return Self {
                bits: Vec::new(),
                num_hashes: 0,
            };
        }
        // k = ln 2 * bits_per_key, clamped to a sensible range.
        let num_hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let nbits = (n * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let mut bits = vec![0u8; nbytes];
        for &hash in hashes {
            let (h1, h2) = probe_pair(hash);
            let mut h = h1;
            for _ in 0..num_hashes {
                let bit = (h % (nbytes as u64 * 8)) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(h2);
            }
        }
        Self { bits, num_hashes }
    }

    /// Returns `false` only if `key` is definitely not in the underlying
    /// set; `true` means "possibly present".
    #[must_use]
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let nbits = self.bits.len() as u64 * 8;
        let (h1, h2) = probe_pair(key_hash(key));
        let mut h = h1;
        for _ in 0..self.num_hashes {
            let bit = (h % nbits) as usize;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }

    /// Size of the encoded filter in bytes (excluding the length prefix).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bits.len() + 4
    }

    /// Serializes the filter (`num_hashes` then the bit array).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u32_le(self.num_hashes);
        buf.put_slice(&self.bits);
        buf.freeze()
    }

    /// Deserializes a filter produced by [`BloomFilter::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the buffer is shorter than the
    /// 4-byte header.
    pub fn decode(data: &[u8]) -> Result<Self, Error> {
        if data.len() < 4 {
            return Err(Error::corruption("bloom filter shorter than header"));
        }
        let num_hashes = u32::from_le_bytes(data[..4].try_into().expect("length checked"));
        Ok(Self {
            bits: data[4..].to_vec(),
            num_hashes,
        })
    }
}

/// The 64-bit hash of `key` every probe position derives from.
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    hll::hash_bytes(key)
}

/// Two independent 64-bit hashes for double hashing, from a
/// [`key_hash`].
fn probe_pair(h1: u64) -> (u64, u64) {
    let h2 = hll::hash_u64(h1 ^ 0x5851_F42D_4C95_7F2D) | 1;
    (h1, h2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| i.to_be_bytes().to_vec()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let keys = keys(10_000);
        let filter = BloomFilter::build(keys.iter().map(Vec::as_slice), 10);
        for k in &keys {
            assert!(
                filter.may_contain(k),
                "bloom filter returned a false negative"
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let present = keys(10_000);
        let filter = BloomFilter::build(present.iter().map(Vec::as_slice), 10);
        let mut false_positives = 0;
        let probes = 10_000u64;
        for i in 0..probes {
            let absent = (1_000_000 + i).to_be_bytes();
            if filter.may_contain(&absent) {
                false_positives += 1;
            }
        }
        let rate = f64::from(false_positives) / probes as f64;
        assert!(rate < 0.05, "false positive rate too high: {rate}");
    }

    #[test]
    fn empty_filter_admits_everything() {
        let filter = BloomFilter::build(std::iter::empty::<&[u8]>(), 10);
        assert!(filter.may_contain(b"anything"));
        let filter = BloomFilter::build(keys(5).iter().map(Vec::as_slice), 0);
        assert!(filter.may_contain(b"anything"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = keys(500);
        let filter = BloomFilter::build(keys.iter().map(Vec::as_slice), 8);
        let encoded = filter.encode();
        assert_eq!(encoded.len(), filter.encoded_len());
        let decoded = BloomFilter::decode(&encoded).unwrap();
        assert_eq!(filter, decoded);
        assert!(BloomFilter::decode(&[1, 2]).is_err());
    }
}
