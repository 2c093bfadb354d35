package token

import "testing"

func TestLookupKeywords(t *testing.T) {
	cases := map[string]Kind{
		"class":        CLASS,
		"extends":      EXTENDS,
		"static":       STATIC,
		"synchronized": SYNCHRONIZED,
		"void":         VOID,
		"int":          KWINT,
		"boolean":      BOOLEAN,
		"if":           IF,
		"else":         ELSE,
		"while":        WHILE,
		"for":          FOR,
		"return":       RETURN,
		"new":          NEW,
		"this":         THIS,
		"null":         NULL,
		"true":         TRUE,
		"false":        FALSE,
		"break":        BREAK,
		"continue":     CONTINUE,
		"print":        PRINT,
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
	for _, lit := range []string{"x", "classes", "Int", "Synchronized", "main"} {
		if got := Lookup(lit); got != IDENT {
			t.Errorf("Lookup(%q) = %v, want IDENT", lit, got)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{IDENT, INT, STRING, CHAR} {
		if !k.IsLiteral() {
			t.Errorf("%v should be a literal", k)
		}
	}
	if PLUS.IsLiteral() || CLASS.IsLiteral() {
		t.Error("IsLiteral misclassifies")
	}
	for _, k := range []Kind{ASSIGN, PLUSASSIGN, MINUSASSIGN, STARASSIGN, SLASHASSIGN} {
		if !k.IsAssignOp() {
			t.Errorf("%v should be an assignment op", k)
		}
	}
	if EQ.IsAssignOp() || INC.IsAssignOp() {
		t.Error("IsAssignOp misclassifies")
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// || < && < (==,!=) < relational < additive < multiplicative
	chains := [][]Kind{
		{OR, AND, EQ, LT, PLUS, STAR},
		{OR, AND, NEQ, GEQ, MINUS, PERCENT},
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			lo, hi := chain[i-1], chain[i]
			if !(lo.Precedence() < hi.Precedence()) {
				t.Errorf("want %v (%d) < %v (%d)", lo, lo.Precedence(), hi, hi.Precedence())
			}
		}
	}
	if ASSIGN.Precedence() != 0 || CLASS.Precedence() != 0 || NOT.Precedence() != 0 {
		t.Error("non-binary operators must have precedence 0")
	}
	if LT.Precedence() != LEQ.Precedence() || GT.Precedence() != GEQ.Precedence() {
		t.Error("relational operators must share a level")
	}
}

func TestPosString(t *testing.T) {
	if (Pos{}).IsValid() {
		t.Error("zero Pos must be invalid")
	}
	if got := (Pos{}).String(); got != "-" {
		t.Errorf("zero Pos String = %q", got)
	}
	p := Pos{File: "a.mj", Line: 3, Col: 9}
	if !p.IsValid() {
		t.Error("valid Pos reported invalid")
	}
	if got := p.String(); got != "a.mj:3:9" {
		t.Errorf("Pos String = %q", got)
	}
	q := Pos{Line: 1, Col: 2}
	if got := q.String(); got != "1:2" {
		t.Errorf("file-less Pos String = %q", got)
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Lit: "foo"}
	if got := tok.String(); got != `IDENT("foo")` {
		t.Errorf("Token.String = %q", got)
	}
	tok = Token{Kind: PLUS}
	if got := tok.String(); got != "+" {
		t.Errorf("Token.String = %q", got)
	}
}

func TestKindStringTotal(t *testing.T) {
	// Every kind up to the keyword sentinel must have a name that is
	// not the fallback format.
	for k := ILLEGAL; k < keywordEnd; k++ {
		if k == keywordBegin {
			continue
		}
		s := k.String()
		if s == "" || (len(s) > 4 && s[:4] == "Kind") {
			t.Errorf("kind %d has no name (%q)", int(k), s)
		}
	}
}
