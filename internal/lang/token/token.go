// Package token defines the lexical tokens of the MJ language and
// source-position bookkeeping shared by the lexer, parser, and
// diagnostics throughout the toolchain.
//
// MJ is the small multithreaded object-oriented language used as the
// substrate for the PLDI'02 datarace-detection reproduction. Its token
// set is a subset of Java's: class declarations, fields, methods,
// synchronized methods and blocks, thread start/join, arrays, and the
// usual expression operators.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds are kept contiguous so Lookup's table can
// be built from a range.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	// Literals and identifiers.
	IDENT  // x, Foo
	INT    // 123
	STRING // "abc"
	CHAR   // 'a'

	// Operators and delimiters.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	EQ  // ==
	NEQ // !=
	LT  // <
	LEQ // <=
	GT  // >
	GEQ // >=

	AND // &&
	OR  // ||
	NOT // !

	ASSIGN     // =
	PLUSASSIGN // +=
	MINUSASSIGN
	STARASSIGN
	SLASHASSIGN
	INC // ++
	DEC // --

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	DOT      // .
	SEMI     // ;

	keywordBegin
	CLASS
	EXTENDS
	STATIC
	SYNCHRONIZED
	VOID
	KWINT // "int"
	BOOLEAN
	IF
	ELSE
	WHILE
	FOR
	RETURN
	NEW
	THIS
	NULL
	TRUE
	FALSE
	BREAK
	CONTINUE
	PRINT // built-in statement "print(expr);"
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	COMMENT: "COMMENT",

	IDENT:  "IDENT",
	INT:    "INT",
	STRING: "STRING",
	CHAR:   "CHAR",

	PLUS:    "+",
	MINUS:   "-",
	STAR:    "*",
	SLASH:   "/",
	PERCENT: "%",

	EQ:  "==",
	NEQ: "!=",
	LT:  "<",
	LEQ: "<=",
	GT:  ">",
	GEQ: ">=",

	AND: "&&",
	OR:  "||",
	NOT: "!",

	ASSIGN:      "=",
	PLUSASSIGN:  "+=",
	MINUSASSIGN: "-=",
	STARASSIGN:  "*=",
	SLASHASSIGN: "/=",
	INC:         "++",
	DEC:         "--",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACE:   "{",
	RBRACE:   "}",
	LBRACKET: "[",
	RBRACKET: "]",
	COMMA:    ",",
	DOT:      ".",
	SEMI:     ";",

	CLASS:        "class",
	EXTENDS:      "extends",
	STATIC:       "static",
	SYNCHRONIZED: "synchronized",
	VOID:         "void",
	KWINT:        "int",
	BOOLEAN:      "boolean",
	IF:           "if",
	ELSE:         "else",
	WHILE:        "while",
	FOR:          "for",
	RETURN:       "return",
	NEW:          "new",
	THIS:         "this",
	NULL:         "null",
	TRUE:         "true",
	FALSE:        "false",
	BREAK:        "break",
	CONTINUE:     "continue",
	PRINT:        "print",
}

// keywords maps source spellings to keyword kinds.
var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBegin + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// Lookup returns the keyword kind for an identifier spelling, or IDENT
// if the spelling is not a keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsLiteral reports whether the kind carries a literal value.
func (k Kind) IsLiteral() bool {
	return k == IDENT || k == INT || k == STRING || k == CHAR
}

// IsAssignOp reports whether the kind is one of the assignment operators.
func (k Kind) IsAssignOp() bool {
	switch k {
	case ASSIGN, PLUSASSIGN, MINUSASSIGN, STARASSIGN, SLASHASSIGN:
		return true
	}
	return false
}

// Pos is a source position: file name plus 1-based line and column.
// The zero Pos is "no position".
// Line and Col are int32, not int: a Pos is embedded in every
// event.Access flowing through the detector pipeline, and the narrow
// fields shave 8 bytes off each buffered event (int32 comfortably
// covers any real source file).
type Pos struct {
	File string
	Line int32
	Col  int32
}

// IsValid reports whether the position carries location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String formats the position as file:line:col, omitting empty parts.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a lexical token: kind, literal spelling, and position.
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind.IsLiteral() {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}

// Precedence returns the binary operator precedence for the kind, or 0
// if the kind is not a binary operator. Higher binds tighter.
func (k Kind) Precedence() int {
	switch k {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, LEQ, GT, GEQ:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PERCENT:
		return 6
	}
	return 0
}
