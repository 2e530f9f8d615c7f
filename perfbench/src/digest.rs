//! The exact-output oracle: an FNV-1a digest of what a job produced,
//! checked against the value committed in `digests.txt`.

/// Streaming 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed blob, so adjacent blobs cannot trade bytes.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

const COMMITTED: &str = include_str!("../digests.txt");

/// The committed digest of `workload`, if there is one.
pub fn committed(workload: &str) -> Option<&'static str> {
    COMMITTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let hex = |s: &[u8]| {
            let mut h = Fnv::new();
            h.bytes(s);
            h.hex()
        };
        assert_eq!(hex(b""), "cbf29ce484222325");
        assert_eq!(hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for w in crate::Workload::ALL {
            let d = committed(w.name()).unwrap_or_else(|| panic!("no digest for {}", w.name()));
            assert!(
                d.len() == 16 && d.chars().all(|c| c.is_ascii_hexdigit()),
                "{d}"
            );
        }
    }
}
