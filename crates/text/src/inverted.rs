//! The positional inverted index: term → document postings with positions.

use std::collections::BTreeMap;

use crate::tokenize::Tokenizer;

/// Document identifier within a text index: a collection's index names
/// its documents by their heap record ids.
pub type DocId = u32;

/// Postings of one term in one document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Posting {
    /// Positions at which the term occurs (sorted).
    pub positions: Vec<u32>,
}

/// The index: term → (doc → positions), plus per-document lengths for
/// ranking.
pub struct TextIndex {
    tokenizer: Tokenizer,
    /// term → sorted map doc → posting.
    terms: BTreeMap<String, BTreeMap<DocId, Posting>>,
    /// doc → token count (for BM25 length normalization).
    doc_len: BTreeMap<DocId, u32>,
    total_len: u64,
}

impl Default for TextIndex {
    fn default() -> Self {
        Self::new(Tokenizer::default())
    }
}

impl TextIndex {
    /// New index with the given tokenizer.
    pub fn new(tokenizer: Tokenizer) -> Self {
        TextIndex {
            tokenizer,
            terms: BTreeMap::new(),
            doc_len: BTreeMap::new(),
            total_len: 0,
        }
    }

    /// The tokenizer (used by query parsing so both sides normalize alike).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Index a document's text under `doc`, which holds no text here: to
    /// re-index a document, [`remove`](Self::remove) its old text first.
    pub fn index(&mut self, doc: DocId, text: &str) {
        let tokens = self.tokenizer.tokenize(text);
        for t in &tokens {
            self.terms
                .entry(t.term.clone())
                .or_default()
                .entry(doc)
                .or_default()
                .positions
                .push(t.position);
        }
        let n = tokens.len() as u32;
        self.doc_len.insert(doc, n);
        self.total_len += n as u64;
    }

    /// Remove a document, given the text it was indexed with: only that
    /// text's terms are touched, and a term left with no postings goes.
    pub fn remove(&mut self, doc: DocId, text: &str) {
        if let Some(n) = self.doc_len.remove(&doc) {
            self.total_len -= n as u64;
        }
        for t in self.tokenizer.tokenize(text) {
            if let Some(postings) = self.terms.get_mut(&t.term) {
                postings.remove(&doc);
                if postings.is_empty() {
                    self.terms.remove(&t.term);
                }
            }
        }
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// Average document length (tokens).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// A document's token count.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }

    /// Documents containing `term` (already-normalized), sorted.
    pub fn postings(&self, term: &str) -> Option<&BTreeMap<DocId, Posting>> {
        self.terms.get(term)
    }

    /// Documents containing a term with the given normalized prefix.
    pub fn prefix_docs(&self, prefix: &str) -> Vec<DocId> {
        let mut out: Vec<DocId> = self
            .terms
            .range(prefix.to_string()..)
            .take_while(|(t, _)| t.starts_with(prefix))
            .flat_map(|(_, p)| p.keys().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.terms.get(term).map(BTreeMap::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> TextIndex {
        let mut i = TextIndex::default();
        i.index(1, "the king's speech");
        i.index(2, "the queen's speech to the king");
        i.index(3, "cooking for kings");
        i
    }

    #[test]
    fn postings_and_positions() {
        let i = idx();
        let p = i.postings("king").unwrap();
        assert_eq!(p.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(p[&1].positions, vec![1]);
        // doc 2: the(0) queen(1) s(2) speech(3) to(4) the(5) king(6)
        assert_eq!(p[&2].positions, vec![6]);
        assert!(i.postings("nothing").is_none());
    }

    #[test]
    fn doc_stats() {
        let i = idx();
        assert_eq!(i.doc_count(), 3);
        assert_eq!(i.doc_len(1), 4); // the, king, s, speech
        assert!(i.avg_doc_len() > 3.0);
        assert_eq!(i.doc_freq("speech"), 2);
        assert_eq!(i.doc_freq("cooking"), 1);
    }

    #[test]
    fn reindex_replaces() {
        let mut i = idx();
        i.remove(1, "the king's speech");
        i.index(1, "entirely new words");
        assert!(i.postings("king").unwrap().get(&1).is_none());
        assert!(i.postings("entirely").unwrap().contains_key(&1));
        assert_eq!(i.doc_count(), 3);
    }

    #[test]
    fn remove_purges_terms() {
        let mut i = idx();
        i.remove(3, "cooking for kings");
        assert_eq!(i.doc_count(), 2);
        assert!(i.postings("cooking").is_none(), "orphan terms are dropped");
    }

    #[test]
    fn removing_a_document_leaves_the_others_exact() {
        let mut i = idx();
        i.remove(2, "the queen's speech to the king");
        let mut only = TextIndex::default();
        only.index(1, "the king's speech");
        only.index(3, "cooking for kings");
        assert_eq!(i.terms, only.terms, "every other posting, positions included");
        assert_eq!((i.doc_count(), i.avg_doc_len()), (2, 3.5));
        assert_eq!((i.doc_len(1), i.doc_len(2), i.doc_len(3)), (4, 0, 3));
    }

    #[test]
    fn prefix_lookup() {
        let i = idx();
        let docs = i.prefix_docs("king");
        assert_eq!(docs, vec![1, 2, 3]); // king, king, kings
        assert_eq!(i.prefix_docs("queen"), vec![2]);
        assert!(i.prefix_docs("zzz").is_empty());
    }
}
