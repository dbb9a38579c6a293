package word2vec

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"of_find_compatible_node", "of find compatible node"},
		{"for_each_child_of_node", "foreach child of node"},
		{"Fix refcount leak in foo_probe()", "fix refcount leak in foo probe"},
		{"dev_hold/dev_put must pair", "dev hold dev put must pair"},
		{"x += 42;", "x"},
	}
	for _, c := range cases {
		got := strings.Join(Tokenize(c.in), " ")
		if got != c.want {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// synth builds a tiny corpus with controlled co-occurrence: "find" appears
// with "get"/"put"; "alpha" appears with "beta"; the two groups never mix.
func synth(n int) [][]string {
	var out [][]string
	for i := 0; i < n; i++ {
		out = append(out,
			[]string{"use", "find", "to", "get", "the", "node", "and", "put", "it"},
			[]string{"the", "find", "helper", "will", "get", "a", "reference"},
			[]string{"alpha", "beta", "gamma", "delta", "run", "fast"},
			[]string{"beta", "alpha", "loops", "over", "gamma", "delta"},
		)
	}
	return out
}

func TestCooccurrenceDrivesSimilarity(t *testing.T) {
	m := Train(synth(80), Config{Dim: 24, Epochs: 4, Seed: 7})
	sameGroup := m.Similarity("find", "get")
	crossGroup := m.Similarity("find", "beta")
	if sameGroup <= crossGroup {
		t.Errorf("find~get %.3f <= find~beta %.3f", sameGroup, crossGroup)
	}
	if sameGroup < 0.2 {
		t.Errorf("find~get = %.3f, too weak", sameGroup)
	}
}

func TestUnknownWordsSimilarityZero(t *testing.T) {
	m := Train(synth(5), Config{Dim: 8, Epochs: 1, Seed: 1})
	if s := m.Similarity("unhold", "find"); s != 0 {
		t.Errorf("unknown word similarity = %v", s)
	}
	if m.Vector("unhold") != nil {
		t.Error("unknown word has a vector")
	}
}

func TestDeterministicTraining(t *testing.T) {
	a := Train(synth(10), Config{Dim: 16, Epochs: 2, Seed: 3})
	b := Train(synth(10), Config{Dim: 16, Epochs: 2, Seed: 3})
	if a.Similarity("find", "get") != b.Similarity("find", "get") {
		t.Error("training not deterministic")
	}
}

func TestMinCount(t *testing.T) {
	sentences := [][]string{
		{"common", "words", "common", "words"},
		{"common", "rare"},
	}
	m := Train(sentences, Config{Dim: 8, Epochs: 1, MinCount: 2, Seed: 1})
	if _, ok := m.vocab["rare"]; ok {
		t.Error("rare word survived MinCount")
	}
	if _, ok := m.vocab["common"]; !ok {
		t.Error("common word missing")
	}
}

func TestEmptyCorpus(t *testing.T) {
	m := Train(nil, Config{})
	if m.VocabSize() != 0 {
		t.Error("empty corpus has vocab")
	}
	if m.Similarity("a", "b") != 0 {
		t.Error("similarity on empty model")
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestQuickSimilarityProperties(t *testing.T) {
	m := Train(synth(20), Config{Dim: 16, Epochs: 2, Seed: 9})
	vocab := []string{"find", "get", "put", "alpha", "beta", "gamma", "node"}
	f := func(ai, bi uint8) bool {
		a := vocab[int(ai)%len(vocab)]
		b := vocab[int(bi)%len(vocab)]
		sab := m.Similarity(a, b)
		sba := m.Similarity(b, a)
		if sab != sba {
			return false
		}
		return sab >= -1.0001 && sab <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	m := Train(synth(10), Config{Dim: 16, Epochs: 2, Seed: 2})
	if s := m.Similarity("find", "find"); s < 0.999 {
		t.Errorf("self similarity = %v", s)
	}
}
