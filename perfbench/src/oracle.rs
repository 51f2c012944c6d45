//! Expected results, computed outside the engine, and the comparison
//! every operation's payload goes through.

/// The expected payload of one query.
#[derive(Debug, Clone)]
pub struct Expected {
    bytes: Vec<u8>,
    /// `Some(row_bytes)` when the result is a set (DISTINCT, GROUP BY):
    /// rows may come back in any order.
    set_rows: Option<usize>,
    sorted: Vec<u8>,
}

impl Expected {
    /// A result that must match byte for byte.
    pub fn exact(bytes: Vec<u8>) -> Self {
        Expected {
            bytes,
            set_rows: None,
            sorted: Vec::new(),
        }
    }

    /// A result whose rows (`row_bytes` each) may come in any order.
    pub fn set(bytes: Vec<u8>, row_bytes: usize) -> Self {
        let sorted = sort_rows(&bytes, row_bytes);
        Expected {
            bytes,
            set_rows: Some(row_bytes),
            sorted,
        }
    }

    pub fn matches(&self, got: &[u8]) -> bool {
        if got == self.bytes.as_slice() {
            return true;
        }
        match self.set_rows {
            Some(rb) => got.len().is_multiple_of(rb) && sort_rows(got, rb) == self.sorted,
            None => false,
        }
    }
}

fn sort_rows(bytes: &[u8], row_bytes: usize) -> Vec<u8> {
    let mut rows: Vec<&[u8]> = bytes.chunks(row_bytes).collect();
    rows.sort_unstable();
    rows.concat()
}
