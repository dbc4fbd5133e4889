"""Compiler front-end unit tests: lexer, parser errors, sema errors,
register-stack spilling."""

import pytest

from repro.toolchain.cc import compile_c, parse, tokenize
from repro.toolchain.cc.cast import CompileError
from repro.toolchain.cc.lexer import LexError


class TestLexer:
    def test_tokens_and_lines(self):
        tokens = tokenize("int x = 1;\nreturn x;")
        kinds = [(t.kind, t.text) for t in tokens[:4]]
        assert kinds == [("kw", "int"), ("ident", "x"), ("op", "="),
                         ("num", "1")]
        assert tokens[5].line == 2

    def test_comments_removed_lines_preserved(self):
        tokens = tokenize("// comment\n/* multi\nline */ int x;")
        assert tokens[0].text == "int"
        assert tokens[0].line == 3

    def test_numeric_bases_and_suffixes(self):
        values = [t.value for t in tokenize("10 0x10 0b10 10u 10UL")
                  if t.kind == "num"]
        assert values == [10, 16, 2, 10, 10]

    def test_char_escapes(self):
        values = [t.value for t in tokenize(r"'a' '\n' '\0' '\\' '\x41'")
                  if t.kind == "num"]
        assert values == [97, 10, 0, 92, 65]

    def test_string_literal_decoding(self):
        token = next(t for t in tokenize(r'"a\tb\n"') if t.kind == "string")
        assert token.value == "a\tb\n"

    def test_three_char_operators(self):
        texts = [t.text for t in tokenize("a <<= 1; b >>= 2;")
                 if t.kind == "op"]
        assert "<<=" in texts and ">>=" in texts

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("int x; /* oops")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int @x;")

    def test_preprocessor_lines_skipped(self):
        tokens = tokenize("#include <stdio.h>\nint x;")
        assert tokens[0].text == "int"

    def test_comment_like_text_in_strings_survives(self):
        token = next(t for t in tokenize('"not // a comment"')
                     if t.kind == "string")
        assert token.value == "not // a comment"


class TestParserErrors:
    @pytest.mark.parametrize("source", [
        "int main(void) { return 1 }",          # missing semicolon
        "int main(void) { if (1 return 2; }",   # missing paren
        "int main(void) { int; }",              # missing declarator
        "int main(void) {",                     # unterminated block
        "int main(void) { break; }",            # break outside loop
        "int main(void) { continue; }",
        "int 5x(void) { return 0; }",           # bad name
        "int a[0];",                            # zero-length array
    ])
    def test_rejected(self, source):
        with pytest.raises(CompileError):
            unit = parse(source)
            from repro.toolchain.cc import analyze
            analyze(unit)

    def test_error_reports_line(self):
        with pytest.raises(CompileError) as err:
            parse("int main(void) {\n  int x;\n  x = ;\n}")
        assert err.value.line == 3


class TestSemaErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("int main(void) { return y; }", "undeclared"),
        ("int main(void) { int x; int x; return 0; }", "redefinition"),
        ("int x; int x; int main(void) { return 0; }", "redefinition"),
        ("int main(void) { 5 = 6; return 0; }", "lvalue"),
        ("int main(void) { int x; return *x; }", "dereference"),
        ("int main(void) { int x; return x[0]; }", "subscript"),
        ("void f(void) { return 1; } int main(void) { return 0; }",
         "void function"),
        ("int f(void) { return; } int main(void) { return 0; }",
         "returns nothing"),
        ("int main(void) { void v; return 0; }", "void"),
        ("int main(void) { int a[2]; int b[2]; a = b; return 0; }",
         "array"),
        ("int main(void) { int *p; int *q; return p * q; }", "pointer"),
    ])
    def test_rejected_with_message(self, source, fragment):
        from repro.toolchain.cc import analyze
        with pytest.raises(CompileError) as err:
            analyze(parse(source))
        assert fragment.lower() in str(err.value).lower()


class TestGeneratedCodeShape:
    def test_function_prologue_epilogue(self):
        asm = compile_c("int main(void) { return 0; }")
        assert "save %sp, -" in asm
        assert "ret" in asm
        assert "restore" in asm

    def test_frame_size_8_byte_aligned(self):
        import re
        asm = compile_c("""
int main(void) { int a, b, c; a = b = c = 1; return a; }""")
        match = re.search(r"save %sp, -(\d+), %sp", asm)
        assert match and int(match.group(1)) % 8 == 0
        assert int(match.group(1)) >= 64 + 12

    def test_strength_reduction_avoids_division(self):
        asm = compile_c("""
unsigned main(void) { unsigned i = 100; return i % 1024 + i / 8 + i * 4; }""")
        assert "udiv" not in asm and "sdiv" not in asm
        assert "umul" not in asm and "smul" not in asm

    def test_non_power_of_two_keeps_division(self):
        asm = compile_c("unsigned main(void) { unsigned i = 9; return i / 7; }")
        assert "udiv" in asm

    def test_builtin_custom_emits_cpop(self):
        asm = compile_c("""
int main(void) { return __builtin_custom(2, 3, 4); }""")
        assert "custom 2," in asm

    def test_globals_in_data_section(self):
        asm = compile_c("int g = 5;\nint main(void) { return g; }")
        assert ".data" in asm
        assert ".global g" in asm

    def test_string_literals_in_rodata(self):
        asm = compile_c("""
char *s = 0;
int main(void) { s = "hey"; return 0; }""")
        assert ".rodata" in asm
        assert '"hey"' in asm


class TestRegisterSpilling:
    def test_deep_expression_compiles_and_runs(self, c_run):
        """An expression needing more than 8 live temporaries forces the
        register stack to spill; result must still be exact."""
        # Parenthesize to force left operands to stay live.
        expr = "(1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + " \
               "(11 + 12)))))))))))"
        assert c_run(f"int main(void) {{ return {expr}; }}") == 78

    def test_spill_emitted_for_deep_expression(self):
        expr = "(1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + " \
               "(11 + 12)))))))))))"
        asm = compile_c(f"int main(void) {{ return {expr}; }}")
        assert "st %l" in asm  # at least one spill store

    def test_shallow_expression_never_spills(self):
        asm = compile_c("int main(void) { return (1 + 2) * (3 + 4); }")
        assert "st %l" not in asm

    def test_deep_expression_with_calls(self, c_run):
        assert c_run("""
int f(int x) { return x; }
int main(void) {
    return (f(1) + (f(2) + (f(3) + (f(4) + (f(5) + (f(6) +
           (f(7) + (f(8) + (f(9) + f(10))))))))));
}""") == 55

    def test_deep_lvalue_expression(self, c_run):
        index = "(1 + " * 10 + "(0 - 9)" + ")" * 10  # evaluates to 1
        assert c_run(f"""
int arr[4];
int main(void) {{
    arr[0] = 1;
    arr[{index}] = 41 + arr[0];
    return arr[1];
}}""") == 42
