// Package word2vec implements CBOW word embeddings with negative sampling,
// from scratch on the standard library.
//
// The paper (§5.2.2, Table 3) trains gensim's CBOW model on >1M kernel
// commit logs to measure the semantic similarity between refcounting API
// keywords (get/put/hold/…) and bug-caused API keywords (find/parse/foreach/
// …), explaining why developers miss hidden refcounting: the bug-caused
// names simply do not smell like refcounting. This package reproduces the
// method; internal/study/table3.go applies it to the synthetic history.
package word2vec

import (
	"math"
	"sort"
	"strings"
)

// Config holds training hyperparameters.
type Config struct {
	Dim          int     // embedding dimensionality (default 48)
	Window       int     // context window radius (default 4)
	Negative     int     // negative samples per position (default 5)
	Epochs       int     // passes over the corpus (default 3)
	LearningRate float64 // initial alpha (default 0.05)
	MinCount     int     // discard rarer words (default 2)
	Seed         uint64
}

func (c *Config) defaults() {
	if c.Dim == 0 {
		c.Dim = 48
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.Negative == 0 {
		c.Negative = 5
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.MinCount == 0 {
		c.MinCount = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Model is a trained embedding table.
type Model struct {
	vocab  map[string]int
	words  []string
	counts []int
	in     [][]float64 // input (context) vectors — the embeddings
	out    [][]float64 // output vectors
}

type rng uint64

func (s *rng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *rng) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}

// Tokenize lowercases text and splits it into words, breaking identifiers on
// underscores. The "for_each" prefix collapses into the single token
// "foreach" so Table 3's iterator keyword is measurable.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flushWord := func() {
		if cur.Len() == 0 {
			return
		}
		out = append(out, cur.String())
		cur.Reset()
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z':
			cur.WriteRune(r)
		case r == '_', r == '-':
			flushWord()
		default:
			flushWord()
		}
	}
	flushWord()
	// Collapse "for each" pairs into "foreach".
	var merged []string
	for i := 0; i < len(out); i++ {
		if out[i] == "for" && i+1 < len(out) && out[i+1] == "each" {
			merged = append(merged, "foreach")
			i++
			continue
		}
		merged = append(merged, out[i])
	}
	return merged
}

// Train fits a CBOW model over the sentences.
func Train(sentences [][]string, cfg Config) *Model {
	cfg.defaults()
	r := rng(cfg.Seed | 1)

	// Vocabulary.
	freq := map[string]int{}
	for _, s := range sentences {
		for _, w := range s {
			freq[w]++
		}
	}
	m := &Model{vocab: map[string]int{}}
	var words []string
	for w, n := range freq {
		if n >= cfg.MinCount {
			words = append(words, w)
		}
	}
	sort.Strings(words) // deterministic indexing
	for _, w := range words {
		m.vocab[w] = len(m.words)
		m.words = append(m.words, w)
		m.counts = append(m.counts, freq[w])
	}
	v := len(m.words)
	if v == 0 {
		return m
	}

	// Init vectors.
	m.in = make([][]float64, v)
	m.out = make([][]float64, v)
	for i := 0; i < v; i++ {
		m.in[i] = make([]float64, cfg.Dim)
		m.out[i] = make([]float64, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			m.in[i][d] = (r.float() - 0.5) / float64(cfg.Dim)
		}
	}

	// Unigram table for negative sampling (freq^0.75 weighting).
	const tableSize = 1 << 16
	table := make([]int, tableSize)
	var total float64
	pows := make([]float64, v)
	for i := 0; i < v; i++ {
		pows[i] = math.Pow(float64(m.counts[i]), 0.75)
		total += pows[i]
	}
	idx, acc := 0, pows[0]/total
	for t := 0; t < tableSize; t++ {
		table[t] = idx
		if float64(t)/tableSize > acc && idx < v-1 {
			idx++
			acc += pows[idx] / total
		}
	}

	// Encode sentences.
	enc := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		var row []int
		for _, w := range s {
			if id, ok := m.vocab[w]; ok {
				row = append(row, id)
			}
		}
		if len(row) > 1 {
			enc = append(enc, row)
		}
	}

	h := make([]float64, cfg.Dim)
	grad := make([]float64, cfg.Dim)
	alpha := cfg.LearningRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, sent := range enc {
			for pos, target := range sent {
				lo := pos - cfg.Window
				if lo < 0 {
					lo = 0
				}
				hi := pos + cfg.Window
				if hi >= len(sent) {
					hi = len(sent) - 1
				}
				n := 0
				for d := range h {
					h[d] = 0
					grad[d] = 0
				}
				for j := lo; j <= hi; j++ {
					if j == pos {
						continue
					}
					for d, x := range m.in[sent[j]] {
						h[d] += x
					}
					n++
				}
				if n == 0 {
					continue
				}
				inv := 1 / float64(n)
				for d := range h {
					h[d] *= inv
				}
				// One positive + Negative negatives.
				for k := 0; k <= cfg.Negative; k++ {
					var label float64
					var w int
					if k == 0 {
						label, w = 1, target
					} else {
						label, w = 0, table[r.intn(tableSize)]
						if w == target {
							continue
						}
					}
					var dot float64
					for d := range h {
						dot += h[d] * m.out[w][d]
					}
					g := alpha * (label - sigmoid(dot))
					for d := range h {
						grad[d] += g * m.out[w][d]
						m.out[w][d] += g * h[d]
					}
				}
				for j := lo; j <= hi; j++ {
					if j == pos {
						continue
					}
					vec := m.in[sent[j]]
					for d := range vec {
						vec[d] += grad[d] * inv
					}
				}
			}
		}
		alpha *= 0.7 // simple decay
	}
	return m
}

func sigmoid(x float64) float64 {
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// Vector returns the embedding for a word (nil if unknown).
func (m *Model) Vector(word string) []float64 {
	id, ok := m.vocab[word]
	if !ok {
		return nil
	}
	return m.in[id]
}

// Similarity returns the cosine similarity of two words; words missing from
// the vocabulary yield 0 (Table 3's "unhold" case — the word barely occurs
// in kernel history at all).
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	var dot, na, nb float64
	for d := range va {
		dot += va[d] * vb[d]
		na += va[d] * va[d]
		nb += vb[d] * vb[d]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// VocabSize returns the number of trained words.
func (m *Model) VocabSize() int { return len(m.words) }
