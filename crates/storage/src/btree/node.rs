//! On-disk B+-tree node format.
//!
//! A node serializes to one [`PAGE_SIZE`] checksummed block, parallel to
//! the heap's slotted-page block format but with its own magic (`RBTN`) so
//! a heap block can never be mistaken for an index block:
//!
//! ```text
//! 0..4    magic "RBTN"
//! 4..8    CRC32 over bytes 8..PAGE_SIZE
//! 8       node kind: 0 = branch, 1 = leaf
//! 9..11   key count (u16)
//! 11..15  right-sibling page number (leaf chain; NO_PAGE if none)
//! 15..    keys (KEY_SIZE bytes each), then — branches only —
//!         child page numbers (u32 × (key count + 1)), then zero padding
//! ```
//!
//! Keys are opaque fixed-width byte strings compared lexicographically;
//! the index layer (RecScoreIndex) chooses an order-preserving encoding so
//! byte order equals logical order.

use crate::block;
use crate::error::{StorageError, StorageResult};
use crate::page::PAGE_SIZE;

/// Fixed key width: `(user id, score, item id)` packs into 8 + 8 + 8 bytes.
pub const KEY_SIZE: usize = 24;

/// A B+-tree key: an opaque, lexicographically ordered byte string.
pub type Key = [u8; KEY_SIZE];

/// Sentinel page number meaning "no page" (end of the leaf chain).
pub const NO_PAGE: u32 = u32::MAX;

/// Fixed header bytes before the key area.
const NODE_HEADER_SIZE: usize = 15;

/// Most keys a leaf can hold and still encode into one block.
pub const MAX_LEAF_KEYS: usize = (PAGE_SIZE - NODE_HEADER_SIZE) / KEY_SIZE;

/// Most keys a branch can hold: each key costs `KEY_SIZE` bytes plus one
/// `u32` child, and there is one extra child pointer.
pub const MAX_BRANCH_KEYS: usize = (PAGE_SIZE - NODE_HEADER_SIZE - 4) / (KEY_SIZE + 4);

const NODE_MAGIC: u32 = u32::from_le_bytes(*b"RBTN");

/// One B+-tree node: a leaf (sorted keys + sibling pointer) or a branch
/// (separator keys + child page numbers, `children.len() == keys.len() + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Sorted keys. For a branch these are separators: child `i` holds
    /// keys `< keys[i]`, child `i + 1` holds keys `>= keys[i]`.
    pub keys: Vec<Key>,
    /// Child page numbers (branches only; empty for leaves).
    pub children: Vec<u32>,
    /// Right sibling in the leaf chain (leaves only; [`NO_PAGE`] if none).
    pub next: u32,
}

impl Node {
    /// An empty leaf with no right sibling.
    pub fn leaf() -> Self {
        Node {
            is_leaf: true,
            keys: Vec::new(),
            children: Vec::new(),
            next: NO_PAGE,
        }
    }

    /// A branch over the given separators and children.
    pub fn branch(keys: Vec<Key>, children: Vec<u32>) -> Self {
        debug_assert_eq!(children.len(), keys.len() + 1);
        Node {
            is_leaf: false,
            keys,
            children,
            next: NO_PAGE,
        }
    }

    /// Encode into one [`PAGE_SIZE`] block (see module docs for layout).
    pub fn encode_block(&self) -> Vec<u8> {
        debug_assert!(self.keys.len() <= u16::MAX as usize);
        debug_assert!(if self.is_leaf {
            self.children.is_empty() && self.keys.len() <= MAX_LEAF_KEYS
        } else {
            self.children.len() == self.keys.len() + 1 && self.keys.len() <= MAX_BRANCH_KEYS
        });
        let mut block = block::start(NODE_MAGIC);
        block.push(self.is_leaf as u8);
        block.extend_from_slice(&(self.keys.len() as u16).to_le_bytes());
        block.extend_from_slice(&self.next.to_le_bytes());
        for key in &self.keys {
            block.extend_from_slice(key);
        }
        if !self.is_leaf {
            for &child in &self.children {
                block.extend_from_slice(&child.to_le_bytes());
            }
        }
        block::seal(&mut block);
        block
    }

    /// Decode one block back into a node, verifying the checksum first.
    /// `file` and `page_no` only label corruption errors.
    pub fn decode_block(block: &[u8], file: &str, page_no: u32) -> StorageResult<Node> {
        block::verify(block, NODE_MAGIC, "index", file, page_no)?;
        let bad = |msg: &str| StorageError::Corrupt(format!("`{file}` page {page_no}: {msg}"));
        let is_leaf = match block[8] {
            0 => false,
            1 => true,
            other => return Err(bad(&format!("node kind byte is {other}"))),
        };
        let key_count = u16::from_le_bytes([block[9], block[10]]) as usize;
        let next = u32::from_le_bytes([block[11], block[12], block[13], block[14]]);
        let max = if is_leaf {
            MAX_LEAF_KEYS
        } else {
            MAX_BRANCH_KEYS
        };
        if key_count > max {
            return Err(bad(&format!("{key_count} keys overflow the block")));
        }
        let mut keys = Vec::with_capacity(key_count);
        for i in 0..key_count {
            let at = NODE_HEADER_SIZE + i * KEY_SIZE;
            let mut key = [0u8; KEY_SIZE];
            key.copy_from_slice(&block[at..at + KEY_SIZE]);
            keys.push(key);
        }
        let mut children = Vec::new();
        if !is_leaf {
            let base = NODE_HEADER_SIZE + key_count * KEY_SIZE;
            children.reserve(key_count + 1);
            for i in 0..=key_count {
                let at = base + i * 4;
                children.push(u32::from_le_bytes(
                    block[at..at + 4]
                        .try_into()
                        .expect("fixed-width child slice"),
                ));
            }
        }
        Ok(Node {
            is_leaf,
            keys,
            children,
            next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Key {
        let mut k = [0u8; KEY_SIZE];
        k[0] = n;
        k
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::leaf();
        n.keys = (0..50).map(key).collect();
        n.next = 7;
        let block = n.encode_block();
        assert_eq!(block.len(), PAGE_SIZE);
        let back = Node::decode_block(&block, "idx", 3).unwrap();
        assert_eq!(back, n);
        // Decode→encode is byte-identical, like heap pages.
        assert_eq!(back.encode_block(), block);
    }

    #[test]
    fn branch_roundtrip() {
        let n = Node::branch(vec![key(10), key(20)], vec![1, 2, 3]);
        let back = Node::decode_block(&n.encode_block(), "idx", 0).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn corruption_is_detected() {
        let mut n = Node::leaf();
        n.keys = (0..10).map(key).collect();
        let mut block = n.encode_block();
        block[100] ^= 0x01;
        assert!(matches!(
            Node::decode_block(&block, "idx", 5),
            Err(StorageError::Corruption { page: 5, .. })
        ));
        assert!(Node::decode_block(&block[..100], "idx", 0).is_err());
    }

    #[test]
    fn heap_block_is_rejected_by_magic() {
        let page = crate::page::Page::new();
        let block = page.encode_block(0);
        assert!(matches!(
            Node::decode_block(&block, "idx", 0),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn capacity_constants_fit_a_block() {
        let mut leaf = Node::leaf();
        leaf.keys = vec![[0xAB; KEY_SIZE]; MAX_LEAF_KEYS];
        assert_eq!(leaf.encode_block().len(), PAGE_SIZE);
        let branch = Node::branch(
            vec![[0xCD; KEY_SIZE]; MAX_BRANCH_KEYS],
            vec![0; MAX_BRANCH_KEYS + 1],
        );
        assert_eq!(branch.encode_block().len(), PAGE_SIZE);
        const { assert!(MAX_LEAF_KEYS > 300) };
        const { assert!(MAX_BRANCH_KEYS > 250) };
    }
}
