package cq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics feeds random byte soup and random near-miss query
// strings to the parser: it must always return an error or a valid query,
// never panic.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", s, r)
				ok = false
			}
		}()
		q, err := Parse(s)
		if err == nil && q == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseNearMissMutations mutates valid queries one character at a time
// and checks the parser stays panic-free and either rejects or round-trips.
func TestParseNearMissMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []string{
		"Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
		"lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"CV2(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY...'",
	}
	chars := []byte("(),.:-'λQXabz019 =\t\"")
	for _, base := range bases {
		for trial := 0; trial < 500; trial++ {
			b := []byte(base)
			pos := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0:
				b[pos] = chars[rng.Intn(len(chars))]
			case 1:
				b = append(b[:pos], b[pos+1:]...)
			default:
				b = append(b[:pos], append([]byte{chars[rng.Intn(len(chars))]}, b[pos:]...)...)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutated input %q: %v", b, r)
					}
				}()
				q, err := Parse(string(b))
				if err == nil {
					// Accepted mutants must round-trip.
					if _, err2 := Parse(q.String()); err2 != nil {
						t.Errorf("accepted %q but its rendering %q fails: %v", b, q.String(), err2)
					}
				}
			}()
		}
	}
}

// TestParseProgramNeverPanics exercises the multi-statement splitter.
func TestParseProgramNeverPanics(t *testing.T) {
	f := func(lines []string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseProgram(strings.Join(lines, "\n"))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDeepNestingBounded guards the lexer against pathological inputs.
func TestDeepNestingBounded(t *testing.T) {
	long := "Q(" + strings.Repeat("X, ", 5000) + "X) :- R(" + strings.Repeat("X, ", 5000) + "X)"
	if _, err := Parse(long); err != nil {
		t.Fatalf("wide query rejected: %v", err)
	}
	garbage := strings.Repeat("(", 100000)
	if _, err := Parse(garbage); err == nil {
		t.Fatal("paren soup accepted")
	}
}

// TestFloatLiteralRoundTrip is the print/reparse regression for float
// constants whose display form reads as an integer: "A(X, 2.0)" used to
// print as "A(X, 2)", reparse as int 2, and share its Signature with the
// int query. Pins and journaled views store the printed text, so the
// printed form must reparse to the same constant kind.
func TestFloatLiteralRoundTrip(t *testing.T) {
	for _, c := range []struct{ float, int string }{
		{"Q(X) :- A(X, 2.0)", "Q(X) :- A(X, 2)"},
		{"Q(X) :- A(X, -0.0)", "Q(X) :- A(X, 0)"},
		{"Q(X) :- A(X, 3e0)", "Q(X) :- A(X, 3)"},
	} {
		q, err := Parse(c.float)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Parse(q.String())
		if err != nil {
			t.Fatalf("%s: printed form %q does not reparse: %v", c.float, q.String(), err)
		}
		if got, want := re.Body[0].Terms[1].Const, q.Body[0].Terms[1].Const; got != want {
			t.Errorf("%s: printed as %q, reparsed constant %v (%s), want %v (%s)",
				c.float, q.String(), got, got.Kind(), want, want.Kind())
		}
		if re.String() != q.String() {
			t.Errorf("%s: print is not a fixed point: %q then %q", c.float, q.String(), re.String())
		}
		iq, err := Parse(c.int)
		if err != nil {
			t.Fatal(err)
		}
		if iq.Signature() == q.Signature() {
			t.Errorf("float query %q and int query %q share signature %q", c.float, c.int, q.Signature())
		}
	}
}
