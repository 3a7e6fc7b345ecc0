package isa

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Segment is a contiguous chunk of assembled bytes at a fixed virtual
// address.
type Segment struct {
	Addr uint32
	Data []byte
}

// Program is the output of the assembler: byte segments plus the symbol
// table (labels and .equ definitions).
type Program struct {
	Segments []Segment
	Symbols  map[string]uint32
}

// End returns one past the highest address covered by any segment.
func (p *Program) End() uint32 {
	var end uint32
	for _, s := range p.Segments {
		if e := s.Addr + uint32(len(s.Data)); e > end {
			end = e
		}
	}
	return end
}

// Size returns the total number of assembled bytes across segments.
func (p *Program) Size() int {
	n := 0
	for _, s := range p.Segments {
		n += len(s.Data)
	}
	return n
}

// AsmError describes an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type asmCtx struct {
	syms    map[string]uint32
	segs    []Segment
	cur     int // index of current segment, -1 if none
	pc      uint32
	lineNo  int
	pass    int
	errLine int
}

func (a *asmCtx) failf(format string, args ...any) error {
	return &AsmError{Line: a.lineNo, Msg: fmt.Sprintf(format, args...)}
}

// Assemble translates M32 assembly source into a Program. The assembler is
// two-pass: pass 1 assigns label addresses, pass 2 emits bytes. Pseudo
// instructions (li, la, move, nop, b, beqz, bnez, blt, bge, bgt, ble, not,
// neg, ret) always expand to a fixed number of machine instructions so that
// layout is identical between passes.
func Assemble(src string) (*Program, error) {
	a := &asmCtx{syms: make(map[string]uint32)}
	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.segs = nil
		a.cur = -1
		a.pc = 0
		if err := a.run(src); err != nil {
			return nil, err
		}
	}
	return &Program{Segments: a.segs, Symbols: a.syms}, nil
}

func (a *asmCtx) run(src string) error {
	for i, line := range strings.Split(src, "\n") {
		a.lineNo = i + 1
		if err := a.line(line); err != nil {
			return err
		}
	}
	return nil
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '#', ';':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func (a *asmCtx) line(line string) error {
	s := strings.TrimSpace(stripComment(line))
	for {
		if s == "" {
			return nil
		}
		// Labels: ident ':'
		if j := strings.IndexByte(s, ':'); j > 0 && isIdent(s[:j]) && !strings.ContainsAny(s[:j], " \t") {
			if a.pass == 1 {
				if _, dup := a.syms[s[:j]]; dup {
					return a.failf("duplicate symbol %q", s[:j])
				}
				a.syms[s[:j]] = a.pc
			}
			s = strings.TrimSpace(s[j+1:])
			continue
		}
		break
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	return a.instruction(s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ---- directives -----------------------------------------------------------

func (a *asmCtx) directive(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	switch name {
	case ".org":
		v, err := a.eval(rest)
		if err != nil {
			return err
		}
		a.newSegment(v)
		return nil
	case ".align":
		n, err := a.eval(rest)
		if err != nil {
			return err
		}
		if n == 0 || n&(n-1) != 0 {
			return a.failf(".align needs a power of two, got %d", n)
		}
		for a.pc%n != 0 {
			a.emitBytes(0)
		}
		return nil
	case ".equ":
		nm, ex, ok := strings.Cut(rest, ",")
		if !ok {
			return a.failf(".equ needs name, value")
		}
		nm = strings.TrimSpace(nm)
		if !isIdent(nm) {
			return a.failf(".equ: bad name %q", nm)
		}
		v, err := a.eval(strings.TrimSpace(ex))
		if err != nil {
			return err
		}
		if a.pass == 1 {
			if _, dup := a.syms[nm]; dup {
				return a.failf("duplicate symbol %q", nm)
			}
		}
		a.syms[nm] = v
		return nil
	case ".word", ".half", ".byte":
		size := map[string]int{".word": 4, ".half": 2, ".byte": 1}[name]
		for _, f := range splitArgs(rest) {
			v, err := a.evalMaybeForward(f)
			if err != nil {
				return err
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			a.emitBytes(b[:size]...)
		}
		return nil
	case ".space":
		args := splitArgs(rest)
		if len(args) == 0 {
			return a.failf(".space needs a size")
		}
		n, err := a.eval(args[0])
		if err != nil {
			return err
		}
		fill := byte(0)
		if len(args) > 1 {
			fv, err := a.eval(args[1])
			if err != nil {
				return err
			}
			fill = byte(fv)
		}
		for i := uint32(0); i < n; i++ {
			a.emitBytes(fill)
		}
		return nil
	case ".ascii", ".asciiz":
		str, err := parseStringLit(rest)
		if err != nil {
			return a.failf("%v", err)
		}
		a.emitBytes([]byte(str)...)
		if name == ".asciiz" {
			a.emitBytes(0)
		}
		return nil
	case ".global", ".globl", ".text", ".data":
		return nil // accepted and ignored
	}
	return a.failf("unknown directive %s", name)
}

func parseStringLit(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return strconv.Unquote(s)
}

func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}

// ---- segments and emission -------------------------------------------------

func (a *asmCtx) newSegment(addr uint32) {
	a.segs = append(a.segs, Segment{Addr: addr})
	a.cur = len(a.segs) - 1
	a.pc = addr
}

func (a *asmCtx) emitBytes(b ...byte) {
	if a.cur < 0 {
		a.newSegment(0)
	}
	a.segs[a.cur].Data = append(a.segs[a.cur].Data, b...)
	a.pc += uint32(len(b))
}

func (a *asmCtx) emit(in Inst) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], Encode(in))
	a.emitBytes(b[:]...)
}

// ---- expressions ------------------------------------------------------------

// eval evaluates an expression that must be resolvable in the current pass.
func (a *asmCtx) eval(s string) (uint32, error) {
	v, ok, err := a.evalExpr(s)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, a.failf("undefined symbol in %q", s)
	}
	return v, nil
}

// evalMaybeForward evaluates an expression, tolerating unresolved symbols in
// pass 1 (value 0); pass 2 requires resolution.
func (a *asmCtx) evalMaybeForward(s string) (uint32, error) {
	v, ok, err := a.evalExpr(s)
	if err != nil {
		return 0, err
	}
	if !ok && a.pass == 2 {
		return 0, a.failf("undefined symbol in %q", s)
	}
	return v, nil
}

// evalExpr handles: term (('+'|'-') term)*, where term is an integer
// literal, a character literal, a symbol, '.', or %hi(expr) / %lo(expr).
func (a *asmCtx) evalExpr(s string) (uint32, bool, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, a.failf("empty expression")
	}
	var total uint32
	resolved := true
	sign := uint32(1) // 1 for +, ^0 trick not needed; multiply
	first := true
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if !first || s[i] == '-' || s[i] == '+' {
			switch {
			case first && s[i] == '-':
				sign = ^uint32(0) // -1
				i++
			case first && s[i] == '+':
				i++
			case !first && s[i] == '+':
				sign = 1
				i++
			case !first && s[i] == '-':
				sign = ^uint32(0)
				i++
			case !first:
				return 0, false, a.failf("expected + or - in %q", s)
			}
		}
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		j := i
		if j < len(s) && s[j] == '%' {
			// %hi( ... ) / %lo( ... )
			open := strings.IndexByte(s[j:], '(')
			if open < 0 {
				return 0, false, a.failf("bad %%hi/%%lo in %q", s)
			}
			depth := 0
			k := j + open
			for ; k < len(s); k++ {
				if s[k] == '(' {
					depth++
				} else if s[k] == ')' {
					depth--
					if depth == 0 {
						break
					}
				}
			}
			if depth != 0 {
				return 0, false, a.failf("unbalanced parens in %q", s)
			}
			kind := strings.TrimSpace(s[j+1 : j+open])
			inner, ok, err := a.evalExpr(s[j+open+1 : k])
			if err != nil {
				return 0, false, err
			}
			if !ok {
				resolved = false
			}
			var v uint32
			switch kind {
			case "hi":
				v = inner >> 16
			case "lo":
				v = inner & 0xFFFF
			default:
				return 0, false, a.failf("unknown operator %%%s", kind)
			}
			total += sign * v
			i = k + 1
		} else {
			for j < len(s) && s[j] != '+' && s[j] != '-' && s[j] != ' ' && s[j] != '\t' {
				j++
			}
			term := s[i:j]
			v, ok, err := a.evalTerm(term)
			if err != nil {
				return 0, false, err
			}
			if !ok {
				resolved = false
			}
			total += sign * v
			i = j
		}
		first = false
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
	}
	return total, resolved, nil
}

func (a *asmCtx) evalTerm(t string) (uint32, bool, error) {
	if t == "" {
		return 0, false, a.failf("empty term")
	}
	if t == "." {
		return a.pc, true, nil
	}
	if len(t) >= 3 && t[0] == '\'' && t[len(t)-1] == '\'' {
		u, err := strconv.Unquote(t)
		if err != nil || len(u) != 1 {
			return 0, false, a.failf("bad char literal %s", t)
		}
		return uint32(u[0]), true, nil
	}
	if c := t[0]; c >= '0' && c <= '9' {
		v, err := strconv.ParseUint(t, 0, 33)
		if err != nil {
			return 0, false, a.failf("bad number %q", t)
		}
		return uint32(v), true, nil
	}
	if v, ok := a.syms[t]; ok {
		return v, true, nil
	}
	if !isIdent(t) {
		return 0, false, a.failf("bad term %q", t)
	}
	if a.pass == 2 {
		return 0, false, a.failf("undefined symbol %q", t)
	}
	return 0, false, nil
}

// ---- operand parsing ---------------------------------------------------------

var gprByName = func() map[string]uint8 {
	m := make(map[string]uint8, 64)
	for i, n := range GPRName {
		m[n] = uint8(i)
		m["$"+strconv.Itoa(i)] = uint8(i)
		m["$"+n] = uint8(i)
		m["r"+strconv.Itoa(i)] = uint8(i)
	}
	return m
}()

var cop0ByName = map[string]uint8{
	"index": C0Index, "random": C0Random, "entrylo": C0EntryLo,
	"context": C0Context, "badvaddr": C0BadVAddr, "count": C0Count,
	"entryhi": C0EntryHi, "compare": C0Compare, "status": C0Status,
	"cause": C0Cause, "epc": C0EPC, "prid": C0PRId,
}

func (a *asmCtx) gpr(s string) (uint8, error) {
	if r, ok := gprByName[strings.ToLower(strings.TrimSpace(s))]; ok {
		return r, nil
	}
	return 0, a.failf("bad register %q", s)
}

func (a *asmCtx) fpr(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.TrimPrefix(s, "$")
	if strings.HasPrefix(s, "f") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < 32 {
			return uint8(n), nil
		}
	}
	return 0, a.failf("bad FP register %q", s)
}

func (a *asmCtx) cop0reg(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.TrimPrefix(s, "$")
	if r, ok := cop0ByName[s]; ok {
		return r, nil
	}
	if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < 32 {
		return uint8(n), nil
	}
	return 0, a.failf("bad cop0 register %q", s)
}

// memOperand parses "off(reg)"; off may be an expression or empty.
func (a *asmCtx) memOperand(s string) (int32, uint8, error) {
	s = strings.TrimSpace(s)
	open := strings.LastIndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.failf("bad memory operand %q", s)
	}
	base, err := a.gpr(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	offStr := strings.TrimSpace(s[:open])
	var off uint32
	if offStr != "" {
		off, err = a.evalMaybeForward(offStr)
		if err != nil {
			return 0, 0, err
		}
	}
	v := int32(off)
	if v < -0x8000 || v > 0x7FFF {
		return 0, 0, a.failf("memory offset %d out of range", v)
	}
	return v, base, nil
}

func (a *asmCtx) branchImm(s string) (int32, error) {
	target, err := a.evalMaybeForward(s)
	if err != nil {
		return 0, err
	}
	if a.pass == 1 {
		return 0, nil
	}
	off, ok := BranchOffset(a.pc, target)
	if !ok {
		return 0, a.failf("branch target 0x%x out of range from 0x%x", target, a.pc)
	}
	return off, nil
}

func (a *asmCtx) imm16(s string, signed bool) (int32, error) {
	v, err := a.evalMaybeForward(s)
	if err != nil {
		return 0, err
	}
	if a.pass == 2 {
		if signed {
			if sv := int32(v); sv < -0x8000 || sv > 0x7FFF {
				return 0, a.failf("immediate %d out of signed 16-bit range", sv)
			}
		} else if v > 0xFFFF {
			return 0, a.failf("immediate 0x%x out of 16-bit range", v)
		}
	}
	return int32(int16(v)), nil
}

// ---- instructions -------------------------------------------------------------

func (a *asmCtx) instruction(s string) error {
	mn, rest, _ := strings.Cut(s, " ")
	mn = strings.ToLower(mn)
	args := splitArgs(strings.TrimSpace(rest))
	need := func(n int) error {
		if len(args) != n {
			return a.failf("%s expects %d operands, got %d", mn, n, len(args))
		}
		return nil
	}

	switch mn {
	// ---- pseudo instructions (fixed-size expansions) ----
	case "nop":
		a.emit(Inst{Op: OpSLL})
		return nil
	case "move":
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rs, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		a.emit(Inst{Op: OpADDU, Rd: rd, Rs: rs, Rt: RegZero})
		return nil
	case "li", "la":
		if err := need(2); err != nil {
			return err
		}
		rd, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		v, err := a.evalMaybeForward(args[1])
		if err != nil {
			return err
		}
		a.emit(Inst{Op: OpLUI, Rt: rd, Imm: int32(v >> 16)})
		a.emit(Inst{Op: OpORI, Rt: rd, Rs: rd, Imm: int32(v & 0xFFFF)})
		return nil
	case "b":
		if err := need(1); err != nil {
			return err
		}
		imm, err := a.branchImm(args[0])
		if err != nil {
			return err
		}
		a.emit(Inst{Op: OpBEQ, Rs: RegZero, Rt: RegZero, Imm: imm})
		return nil
	case "beqz", "bnez":
		if err := need(2); err != nil {
			return err
		}
		rs, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		imm, err := a.branchImm(args[1])
		if err != nil {
			return err
		}
		op := OpBEQ
		if mn == "bnez" {
			op = OpBNE
		}
		a.emit(Inst{Op: op, Rs: rs, Rt: RegZero, Imm: imm})
		return nil
	case "blt", "bge", "bgt", "ble":
		if err := need(3); err != nil {
			return err
		}
		rs, err1 := a.gpr(args[0])
		rt, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		// slt at, x, y ; b{ne,eq} at, zero, label
		x, y := rs, rt
		if mn == "bgt" || mn == "ble" {
			x, y = rt, rs
		}
		a.emit(Inst{Op: OpSLT, Rd: RegAT, Rs: x, Rt: y})
		imm, err := a.branchImm(args[2])
		if err != nil {
			return err
		}
		op := OpBNE
		if mn == "bge" || mn == "ble" {
			op = OpBEQ
		}
		a.emit(Inst{Op: op, Rs: RegAT, Rt: RegZero, Imm: imm})
		return nil
	case "not":
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rs, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		a.emit(Inst{Op: OpNOR, Rd: rd, Rs: rs, Rt: RegZero})
		return nil
	case "neg":
		if err := need(2); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rs, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		a.emit(Inst{Op: OpSUBU, Rd: rd, Rs: RegZero, Rt: rs})
		return nil
	case "ret":
		a.emit(Inst{Op: OpJR, Rs: RegRA})
		return nil

	// ---- shifts ----
	case "sll", "srl", "sra":
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rt, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		sh, err := a.eval(args[2])
		if err != nil {
			return err
		}
		if sh > 31 {
			return a.failf("shift amount %d out of range", sh)
		}
		op := map[string]Op{"sll": OpSLL, "srl": OpSRL, "sra": OpSRA}[mn]
		a.emit(Inst{Op: op, Rd: rd, Rt: rt, Shamt: uint8(sh)})
		return nil
	case "sllv", "srlv", "srav":
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rt, err2 := a.gpr(args[1])
		rs, err3 := a.gpr(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		op := map[string]Op{"sllv": OpSLLV, "srlv": OpSRLV, "srav": OpSRAV}[mn]
		a.emit(Inst{Op: op, Rd: rd, Rt: rt, Rs: rs})
		return nil

	// ---- three-register ALU ----
	case "add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu",
		"mul", "div", "rem", "divu", "remu":
		if err := need(3); err != nil {
			return err
		}
		rd, err1 := a.gpr(args[0])
		rs, err2 := a.gpr(args[1])
		rt, err3 := a.gpr(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		op := map[string]Op{
			"add": OpADD, "addu": OpADDU, "sub": OpSUB, "subu": OpSUBU,
			"and": OpAND, "or": OpOR, "xor": OpXOR, "nor": OpNOR,
			"slt": OpSLT, "sltu": OpSLTU, "mul": OpMUL, "div": OpDIV,
			"rem": OpREM, "divu": OpDIVU, "remu": OpREMU,
		}[mn]
		a.emit(Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
		return nil

	// ---- immediates ----
	case "addi", "addiu", "slti", "sltiu", "andi", "ori", "xori":
		if err := need(3); err != nil {
			return err
		}
		rt, err1 := a.gpr(args[0])
		rs, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		signed := mn == "addi" || mn == "addiu" || mn == "slti" || mn == "sltiu"
		imm, err := a.imm16(args[2], signed)
		if err != nil {
			return err
		}
		op := map[string]Op{
			"addi": OpADDI, "addiu": OpADDIU, "slti": OpSLTI, "sltiu": OpSLTIU,
			"andi": OpANDI, "ori": OpORI, "xori": OpXORI,
		}[mn]
		a.emit(Inst{Op: op, Rt: rt, Rs: rs, Imm: imm})
		return nil
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		imm, err := a.imm16(args[1], false)
		if err != nil {
			return err
		}
		a.emit(Inst{Op: OpLUI, Rt: rt, Imm: imm})
		return nil

	// ---- branches ----
	case "beq", "bne":
		if err := need(3); err != nil {
			return err
		}
		rs, err1 := a.gpr(args[0])
		rt, err2 := a.gpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		imm, err := a.branchImm(args[2])
		if err != nil {
			return err
		}
		op := OpBEQ
		if mn == "bne" {
			op = OpBNE
		}
		a.emit(Inst{Op: op, Rs: rs, Rt: rt, Imm: imm})
		return nil
	case "bltz", "bgez", "blez", "bgtz":
		if err := need(2); err != nil {
			return err
		}
		rs, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		imm, err := a.branchImm(args[1])
		if err != nil {
			return err
		}
		op := map[string]Op{"bltz": OpBLTZ, "bgez": OpBGEZ, "blez": OpBLEZ, "bgtz": OpBGTZ}[mn]
		a.emit(Inst{Op: op, Rs: rs, Imm: imm})
		return nil

	// ---- jumps ----
	case "j", "jal":
		if err := need(1); err != nil {
			return err
		}
		target, err := a.evalMaybeForward(args[0])
		if err != nil {
			return err
		}
		op := OpJ
		if mn == "jal" {
			op = OpJAL
		}
		a.emit(Inst{Op: op, Target: target})
		return nil
	case "jr":
		if err := need(1); err != nil {
			return err
		}
		rs, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		a.emit(Inst{Op: OpJR, Rs: rs})
		return nil
	case "jalr":
		// jalr rs  (link in ra)  |  jalr rd, rs
		switch len(args) {
		case 1:
			rs, err := a.gpr(args[0])
			if err != nil {
				return err
			}
			a.emit(Inst{Op: OpJALR, Rd: RegRA, Rs: rs})
		case 2:
			rd, err1 := a.gpr(args[0])
			rs, err2 := a.gpr(args[1])
			if err := firstErr(err1, err2); err != nil {
				return err
			}
			a.emit(Inst{Op: OpJALR, Rd: rd, Rs: rs})
		default:
			return a.failf("jalr expects 1 or 2 operands")
		}
		return nil

	// ---- traps & cop0 ----
	case "syscall":
		a.emit(Inst{Op: OpSYSCALL})
		return nil
	case "break":
		a.emit(Inst{Op: OpBREAK})
		return nil
	case "tlbr", "tlbwi", "tlbwr", "tlbp", "eret", "wait":
		op := map[string]Op{
			"tlbr": OpTLBR, "tlbwi": OpTLBWI, "tlbwr": OpTLBWR,
			"tlbp": OpTLBP, "eret": OpERET, "wait": OpWAIT,
		}[mn]
		a.emit(Inst{Op: op})
		return nil
	case "mfc0", "mtc0":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		cr, err := a.cop0reg(args[1])
		if err != nil {
			return err
		}
		op := OpMFC0
		if mn == "mtc0" {
			op = OpMTC0
		}
		a.emit(Inst{Op: op, Rt: rt, Rd: cr})
		return nil

	// ---- floating point ----
	case "mfc1", "mtc1":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		fs, err := a.fpr(args[1])
		if err != nil {
			return err
		}
		op := OpMFC1
		if mn == "mtc1" {
			op = OpMTC1
		}
		a.emit(Inst{Op: op, Rt: rt, Rs: fs})
		return nil
	case "bc1f", "bc1t":
		if err := need(1); err != nil {
			return err
		}
		imm, err := a.branchImm(args[0])
		if err != nil {
			return err
		}
		op := OpBC1F
		if mn == "bc1t" {
			op = OpBC1T
		}
		a.emit(Inst{Op: op, Imm: imm})
		return nil
	case "fadd", "fsub", "fmul", "fdiv":
		if err := need(3); err != nil {
			return err
		}
		fd, err1 := a.fpr(args[0])
		fs, err2 := a.fpr(args[1])
		ft, err3 := a.fpr(args[2])
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		op := map[string]Op{"fadd": OpFADD, "fsub": OpFSUB, "fmul": OpFMUL, "fdiv": OpFDIV}[mn]
		a.emit(Inst{Op: op, Rd: fd, Rs: fs, Rt: ft})
		return nil
	case "fsqrt", "fabs", "fmov", "fneg", "cvt.d.w", "cvt.w.d":
		if err := need(2); err != nil {
			return err
		}
		fd, err1 := a.fpr(args[0])
		fs, err2 := a.fpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		op := map[string]Op{
			"fsqrt": OpFSQRT, "fabs": OpFABS, "fmov": OpFMOV, "fneg": OpFNEG,
			"cvt.d.w": OpCVTDW, "cvt.w.d": OpCVTWD,
		}[mn]
		a.emit(Inst{Op: op, Rd: fd, Rs: fs})
		return nil
	case "c.eq", "c.lt", "c.le":
		if err := need(2); err != nil {
			return err
		}
		fs, err1 := a.fpr(args[0])
		ft, err2 := a.fpr(args[1])
		if err := firstErr(err1, err2); err != nil {
			return err
		}
		op := map[string]Op{"c.eq": OpFCEQ, "c.lt": OpFCLT, "c.le": OpFCLE}[mn]
		a.emit(Inst{Op: op, Rs: fs, Rt: ft})
		return nil

	// ---- memory ----
	case "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "ll", "sc":
		if err := need(2); err != nil {
			return err
		}
		rt, err := a.gpr(args[0])
		if err != nil {
			return err
		}
		off, base, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		op := map[string]Op{
			"lb": OpLB, "lh": OpLH, "lw": OpLW, "lbu": OpLBU, "lhu": OpLHU,
			"sb": OpSB, "sh": OpSH, "sw": OpSW, "ll": OpLL, "sc": OpSC,
		}[mn]
		a.emit(Inst{Op: op, Rt: rt, Rs: base, Imm: off})
		return nil
	case "fld", "fsd":
		if err := need(2); err != nil {
			return err
		}
		ft, err := a.fpr(args[0])
		if err != nil {
			return err
		}
		off, base, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		op := OpFLD
		if mn == "fsd" {
			op = OpFSD
		}
		a.emit(Inst{Op: op, Rt: ft, Rs: base, Imm: off})
		return nil
	case "cache":
		if err := need(2); err != nil {
			return err
		}
		cop, err := a.eval(args[0])
		if err != nil {
			return err
		}
		off, base, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		a.emit(Inst{Op: OpCACHE, Rt: uint8(cop), Rs: base, Imm: off})
		return nil
	}
	return a.failf("unknown mnemonic %q", mn)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
