package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"dart/internal/solver"
	"dart/internal/symbolic"
)

// solvesGz is the captured solver-input set, sorted: every solve of a seed-1
// minisip cold audit and of a one-worker Dolev–Yao depth-3 sweep, as the
// corpus solve log recorded them, each line prefixed with its set name
// ("minisip" or "dolev-yao").  README.md says how to regenerate it.
//
//go:embed testdata/solves.log.gz
var solvesGz []byte

// solveCase is one captured solve: the solver's whole input rebuilt
// from its pk1 portable key, and the outcome the engine logged for it.
type solveCase struct {
	set    string
	key    string
	slice  []symbolic.Pred
	names  []string         // variable name by symbolic.Var
	metas  []solver.VarMeta // domain by symbolic.Var
	hint   map[symbolic.Var]int64
	budget int64

	verdict solver.Verdict
	model   map[string]int64
}

func (c *solveCase) name(v symbolic.Var) string         { return c.names[v] }
func (c *solveCase) meta(v symbolic.Var) solver.VarMeta { return c.metas[v] }

// loadSolves decodes the embedded captured set; set selects one program's
// solves ("" for all).
func loadSolves(set string) ([]*solveCase, error) {
	zr, err := gzip.NewReader(bytes.NewReader(solvesGz))
	if err != nil {
		return nil, fmt.Errorf("captured solves: %w", err)
	}
	defer zr.Close()
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var out []*solveCase
	for n := 1; sc.Scan(); n++ {
		c, err := parseSolveLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("captured solves line %d: %w", n, err)
		}
		if set == "" || c.set == set {
			out = append(out, c)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("captured solves: %w", err)
	}
	return out, nil
}

// parseSolveLine parses "<set> s1 <crc32-hex> <json>", the corpus solve
// log format behind a set name.
func parseSolveLine(line string) (*solveCase, error) {
	f := strings.SplitN(line, " ", 4)
	if len(f) != 4 || f[1] != "s1" {
		return nil, fmt.Errorf("not a tagged s1 solve-log line")
	}
	if fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(f[3]))) != f[2] {
		return nil, fmt.Errorf("checksum mismatch")
	}
	var rec struct {
		K string           `json:"k"`
		V int              `json:"v"`
		M map[string]int64 `json:"m"`
	}
	if err := json.Unmarshal([]byte(f[3]), &rec); err != nil {
		return nil, err
	}
	c, err := parsePK1(rec.K)
	if err != nil {
		return nil, err
	}
	c.set, c.verdict, c.model = f[0], solver.Verdict(rec.V), rec.M
	return c, nil
}

// parsePK1 turns a pk1 portable key back into the solver input it
// renders: the predicate slice in solve order, each variable's domain,
// the hint and the work budget.  The grammar is solver.PortableKey's:
//
//	pk1!b<budget>!{r<rel>|<fallback>& | r<rel>|<const>{|<len>:<name>{<kind>,<lo>,<hi>}:<coeff>}&}#{<len>:<name>=<int>|?;}
//
// Variables are numbered in first-use order, so PortableKey of the
// result renders key again byte for byte.
func parsePK1(key string) (*solveCase, error) {
	p := &keyParser{s: key}
	c := &solveCase{key: key, hint: map[symbolic.Var]int64{}}
	ids := map[string]symbolic.Var{}
	p.lit("pk1!b")
	c.budget = p.int()
	p.lit("!")
	for p.err == nil && !p.at('#') {
		p.lit("r")
		rel := symbolic.Rel(p.int())
		if rel < symbolic.EQ || rel > symbolic.GE {
			p.fail("relation %d", rel)
		}
		p.lit("|")
		if p.at('<') {
			p.lit("<fallback>&")
			c.slice = append(c.slice, symbolic.Pred{Rel: rel})
			continue
		}
		l := &symbolic.Lin{Const: p.int(), Coeffs: map[symbolic.Var]int64{}}
		for p.err == nil && p.at('|') {
			p.lit("|")
			name := p.name()
			p.lit("{")
			m := solver.VarMeta{Kind: symbolic.VarKind(p.int())}
			p.lit(",")
			m.Lo = p.int()
			p.lit(",")
			m.Hi = p.int()
			p.lit("}:")
			v, seen := ids[name]
			if !seen {
				v = symbolic.Var(len(c.names))
				ids[name] = v
				c.names = append(c.names, name)
				c.metas = append(c.metas, m)
			} else if c.metas[v] != m {
				p.fail("variable %q with two domains", name)
			}
			k := p.int()
			if k == 0 {
				p.fail("zero coefficient")
			}
			l.Coeffs[v] = k
		}
		p.lit("&")
		c.slice = append(c.slice, symbolic.Pred{L: l, Rel: rel})
	}
	p.lit("#")
	for p.err == nil && p.i < len(p.s) {
		name := p.name()
		p.lit("=")
		v, ok := ids[name]
		if !ok {
			p.fail("hint for unknown variable %q", name)
		}
		if p.at('?') {
			p.lit("?")
		} else {
			c.hint[v] = p.int()
		}
		p.lit(";")
	}
	if p.err != nil {
		return nil, p.err
	}
	return c, nil
}

// keyParser is a cursor over a key; the first error sticks and every
// later read is a no-op.
type keyParser struct {
	s   string
	i   int
	err error
}

func (p *keyParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("pk1 offset %d: %s", p.i, fmt.Sprintf(format, args...))
	}
}

func (p *keyParser) at(b byte) bool { return p.err == nil && p.i < len(p.s) && p.s[p.i] == b }

func (p *keyParser) lit(want string) {
	if p.err != nil {
		return
	}
	if !strings.HasPrefix(p.s[p.i:], want) {
		p.fail("want %q", want)
		return
	}
	p.i += len(want)
}

func (p *keyParser) int() int64 {
	if p.err != nil {
		return 0
	}
	j := p.i
	if j < len(p.s) && p.s[j] == '-' {
		j++
	}
	for j < len(p.s) && p.s[j] >= '0' && p.s[j] <= '9' {
		j++
	}
	n, err := strconv.ParseInt(p.s[p.i:j], 10, 64)
	if err != nil {
		p.fail("integer: %v", err)
		return 0
	}
	p.i = j
	return n
}

// name reads a length-prefixed name "<len>:<bytes>".
func (p *keyParser) name() string {
	n := p.int()
	p.lit(":")
	if p.err != nil {
		return ""
	}
	if n < 0 || int64(len(p.s)-p.i) < n {
		p.fail("name length %d", n)
		return ""
	}
	s := p.s[p.i : p.i+int(n)]
	p.i += int(n)
	return s
}
