"""Runtime-library (mini libc) tests: every routine, executed on LEON."""

import pytest

from repro.core.sim import simulate
from repro.toolchain.driver import compile_c_program


def run_libc(source: str, max_instructions: int = 5_000_000):
    image = compile_c_program(source, with_libc=True)
    return simulate(image, max_instructions=max_instructions)


class TestMemoryRoutines:
    def test_memcpy_word_aligned_fast_path(self):
        report = run_libc("""
unsigned src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
unsigned dst[8];
int main(void) {
    memcpy(dst, src, 32);
    int total = 0;
    for (int i = 0; i < 8; i++) total += (int)dst[i];
    return total;
}""")
        assert report.result_word == 36

    def test_memcpy_unaligned_byte_path(self):
        report = run_libc("""
char src[10] = "abcdefghi";
char dst[10];
int main(void) {
    memcpy(dst + 1, src + 2, 5);   /* misaligned both sides */
    return dst[1] == 'c' && dst[5] == 'g';
}""")
        assert report.result_word == 1

    def test_memset(self):
        report = run_libc("""
char buf[16];
int main(void) {
    memset(buf, 0x5A, 16);
    int ok = 1;
    for (int i = 0; i < 16; i++)
        if (buf[i] != 0x5A) ok = 0;
    return ok;
}""")
        assert report.result_word == 1

    def test_memcmp(self):
        report = run_libc("""
char a[4] = {1, 2, 3, 4};
char b[4] = {1, 2, 9, 4};
int main(void) {
    int eq = memcmp(a, a, 4);
    int lt = memcmp(a, b, 4);
    int gt = memcmp(b, a, 4);
    return eq == 0 && lt < 0 && gt > 0;
}""")
        assert report.result_word == 1


class TestStringRoutines:
    def test_strlen(self):
        report = run_libc("""
int main(void) { return strlen("hello") + strlen(""); }""")
        assert report.result_word == 5

    def test_strcmp_ordering(self):
        report = run_libc("""
int main(void) {
    return strcmp("abc", "abc") == 0
        && strcmp("abc", "abd") < 0
        && strcmp("b", "ab") > 0
        && strcmp("ab", "abc") < 0;
}""")
        assert report.result_word == 1

    def test_strcpy_returns_dest(self):
        report = run_libc("""
char buf[8];
int main(void) {
    char *r = strcpy(buf, "xyz");
    return r == buf && buf[3] == 0 && strlen(buf) == 3;
}""")
        assert report.result_word == 1

    def test_abs(self):
        report = run_libc("int main(void) { return abs(-42) + abs(17); }")
        assert report.result_word == 59


class TestConsole:
    def test_puts_and_numbers_over_uart(self):
        report = run_libc("""
int main(void) {
    puts_uart("cycles:");
    print_unsigned(12345);
    putchar_uart('\\n');
    print_hex(0xDEADBEEF);
    return 0;
}""")
        assert report.uart_output == b"cycles:\n12345\n0xdeadbeef"

    def test_print_unsigned_zero_and_max(self):
        report = run_libc("""
int main(void) {
    print_unsigned(0);
    putchar_uart(' ');
    print_unsigned(0xFFFFFFFFu);
    return 0;
}""")
        assert report.uart_output == b"0 4294967295"

    def test_uart_on_full_platform(self):
        """Console output also works through the networked platform."""
        from repro.core import LiquidProcessorSystem

        system = LiquidProcessorSystem()
        image = compile_c_program("""
int main(void) { puts_uart("fpx"); return 1; }""", with_libc=True)
        run = system.run_image(image)
        assert run.result == 1
        assert system.platform.uart.transmitted() == b"fpx\n"


class TestLinkingBehaviour:
    def test_user_symbols_shadowing_is_rejected(self):
        """Defining a function the library also defines is a link error,
        like any duplicate global."""
        from repro.toolchain.objfile import LinkError

        with pytest.raises(LinkError):
            compile_c_program("""
unsigned strlen(char *s) { return 0; }
int main(void) { return 0; }""", with_libc=True)

    def test_local_labels_do_not_collide_across_units(self):
        # Both the user unit and libc generate .Lret/.Lstr labels.
        report = run_libc("""
int helper(int x) { return x ? x : -1; }
int main(void) {
    char *s = "a";
    return helper(strlen(s));
}""")
        assert report.result_word == 1

    def test_libc_not_linked_by_default(self):
        from repro.toolchain.cc.cast import CompileError

        with pytest.raises(CompileError):
            compile_c_program("int main(void) { return strlen(\"x\"); }")
