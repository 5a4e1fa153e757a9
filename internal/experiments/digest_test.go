package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// figureDigest hashes everything a figure shows: its ID, title, axis labels,
// series labels and the raw bits of every X, Y and YErr value, in order.
func figureDigest(figs []Figure) string {
	h := sha256.New()
	floats := func(vs []float64) {
		fmt.Fprintf(h, "%d:", len(vs))
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	for _, f := range figs {
		fmt.Fprintf(h, "%q %q %q %q %d\n", f.ID, f.Title, f.XLabel, f.YLabel, len(f.Series))
		for _, s := range f.Series {
			fmt.Fprintf(h, "%q\n", s.Label)
			floats(s.X)
			floats(s.Y)
			floats(s.YErr)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFigureDigests pins every value, label and order of the figure groups of
// Figs. 5-15, simulator series of Figs. 5 and 6 included. All groups share
// one Options value, and with it one solve cache, as in AllFigures. A moved
// digest means a figure changed.
func TestFigureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps with simulator series skipped in -short mode")
	}
	o := Options{
		Fidelity:          Quick,
		Tolerance:         1e-3,
		WithSimulation:    true,
		Replications:      2,
		SimMeasurementSec: 200,
	}.withDefaults()
	one := func(fn func(Options) (Figure, error)) func(Options) ([]Figure, error) {
		return func(o Options) ([]Figure, error) {
			fig, err := fn(o)
			return []Figure{fig}, err
		}
	}
	groups := []struct {
		name string
		fn   func(Options) ([]Figure, error)
		want string
	}{
		{"fig5", one(Fig5ThresholdCalibration), "0097805b02030fae890187ca482a736a3294cf84f778641c0ad5110a82b33d50"},
		{"fig6", Fig6Validation, "fd94ab9216531b8902ea02bf060d6d2305bf8efd9d2f053b4762cc7e34ed2e80"},
		{"fig7", Fig7CDT, "8509b21b36030b3d6b026668fa1fbc9e5b8bf6330ccf09b0d2b77331a2b9390d"},
		{"fig8", Fig8PLP, "8d005f7134d84c696c70673b0e96764ecbeb73ef4221a1060ac535ce5236222a"},
		{"fig9", Fig9QD, "c833e14dc538edc058fcbbf7a17a9dca276e1fe54cde78c0954e1d12632c978a"},
		{"fig10", Fig10SessionLimit, "9c626bb3d773cae8b2d6bcde3fa40accb790bf86ed32e09714f3e782abee75e6"},
		{"fig11", Fig11TwoPercent, "728904a75896c0e983bdccf3adcf0e6f33707767d17850191e37928d4258bbc8"},
		{"fig12", Fig12FivePercent, "599beda821a0bfe6f45e69fcd757907623751d6e9a28cd2df5a7724acc3108cf"},
		{"fig13", Fig13TenPercent, "aa707c4a0d55d0054527ed3e5da1a02d7f26d105c88b1a9d095c828a728569b3"},
		{"fig14", Fig14VoiceImpact, "977e1c7c7b75431373ff8532f2c67143e5345094ddaca5dc3d1f5415f34bae37"},
		{"fig15", Fig15GPRSPopulation, "d3e0251da3c85d8765ed3cb5d5a5ba413f1aef0b9069cfe55d047064a85b74ba"},
	}
	for _, g := range groups {
		figs, err := g.fn(o)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := figureDigest(figs); got != g.want {
			t.Errorf("%s: digest %s, want %s", g.name, got, g.want)
		}
	}
}
