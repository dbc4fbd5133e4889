"""Additional mini-C language coverage: storage classes, multi-TU
programs, type spellings, and heavier algorithmic workloads."""

from repro.core.sim import simulate
from repro.toolchain.driver import SourceFile, build_image, compile_c_program
from repro.utils import s32


def run(source: str, **kwargs) -> int:
    report = simulate(compile_c_program(source, **kwargs))
    return s32(report.result_word)


class TestTypeSpellings:
    def test_short_long_map_to_int(self, c_run):
        assert c_run("""
long big = 100000;
short small = 12;
int main(void) { return (int)(big / 1000) + small; }""") == 112

    def test_unsigned_int_spelling(self, c_run):
        assert c_run("""
unsigned int x = 40;
int main(void) { return (int)x + 2; }""") == 42

    def test_signed_is_accepted(self, c_run):
        assert c_run("signed int main(void) { signed char c = -3; "
                     "return c; }") == -3

    def test_static_and_const_accepted(self, c_run):
        assert c_run("""
static int hidden = 7;
const int limit = 6;
int main(void) { return hidden * limit; }""") == 42

    def test_void_pointer_roundtrip(self, c_run):
        assert c_run("""
int main(void) {
    int x = 99;
    void *p = (void*)&x;
    int *q = (int*)p;
    return *q;
}""") == 99


class TestMultiTranslationUnit:
    def test_extern_global_shared_across_units(self):
        image = build_image([
            SourceFile("""
extern int shared;
int main(void) { shared = shared + 2; return shared; }""", "c", "a.c"),
            SourceFile("int shared = 40;", "c", "b.c"),
        ])
        assert s32(simulate(image).result_word) == 42

    def test_cross_unit_function_calls(self):
        image = build_image([
            SourceFile("""
int twice(int x);
int thrice(int x);
int main(void) { return twice(thrice(7)); }""", "c", "main.c"),
            SourceFile("int twice(int x) { return 2 * x; }", "c", "m2.c"),
            SourceFile("int thrice(int x) { return 3 * x; }", "c", "m3.c"),
        ])
        assert s32(simulate(image).result_word) == 42

    def test_string_literals_in_multiple_units(self):
        image = build_image([
            SourceFile("""
unsigned strlen(char *s);
char *first(void);
int main(void) { return strlen(first()) + strlen("xy"); }""", "c", "a.c"),
            SourceFile("""
unsigned strlen(char *s) {
    unsigned n = 0;
    while (s[n]) n++;
    return n;
}
char *first(void) { return "abcde"; }""", "c", "b.c"),
        ])
        assert s32(simulate(image).result_word) == 7


class TestExpressionsEdgeCases:
    def test_nested_ternary(self, c_run):
        assert c_run("""
int classify(int x) {
    return x < 0 ? -1 : x == 0 ? 0 : 1;
}
int main(void) {
    return classify(-4) * 100 + classify(0) * 10 + classify(9);
}""") == -99

    def test_chained_comparisons_parse_left_assoc(self, c_run):
        # (1 < 2) < 3  ->  1 < 3  ->  1
        assert c_run("int main(void) { return 1 < 2 < 3; }") == 1

    def test_assignment_in_condition(self, c_run):
        assert c_run("""
int main(void) {
    int x = 0, n = 0;
    while ((x = x + 3) < 10) n++;
    return n * 100 + x;
}""") == 312

    def test_logical_results_are_exactly_0_or_1(self, c_run):
        assert c_run("""
int main(void) {
    int a = 17, b = -5;
    return (a && b) + (a || b) + !a + !!b;
}""") == 3

    def test_deeply_nested_calls_and_windows(self, c_run):
        assert c_run("""
int f0(int x) { return x + 1; }
int f1(int x) { return f0(x) + 1; }
int f2(int x) { return f1(x) + 1; }
int f3(int x) { return f2(x) + 1; }
int f4(int x) { return f3(x) + 1; }
int f5(int x) { return f4(x) + 1; }
int f6(int x) { return f5(x) + 1; }
int f7(int x) { return f6(x) + 1; }
int f8(int x) { return f7(x) + 1; }
int f9(int x) { return f8(x) + 1; }
int main(void) { return f9(32); }""") == 42

    def test_global_pointer_to_global_array(self, c_run):
        assert c_run("""
int table[4] = {1, 2, 3, 4};
int *cursor;
int main(void) {
    cursor = table;
    cursor = cursor + 2;
    return *cursor;
}""") == 3


class TestAlgorithms:
    def test_quicksort(self, c_run):
        assert c_run("""
int data[16] = {9, 3, 14, 1, 12, 6, 0, 15, 7, 11, 2, 13, 5, 10, 4, 8};

void quicksort(int lo, int hi) {
    if (lo >= hi) return;
    int pivot = data[(lo + hi) / 2];
    int i = lo, j = hi;
    while (i <= j) {
        while (data[i] < pivot) i++;
        while (data[j] > pivot) j--;
        if (i <= j) {
            int tmp = data[i]; data[i] = data[j]; data[j] = tmp;
            i++; j--;
        }
    }
    quicksort(lo, j);
    quicksort(i, hi);
}

int main(void) {
    quicksort(0, 15);
    for (int k = 0; k < 16; k++)
        if (data[k] != k) return -1;
    return 1;
}""", max_instructions=2_000_000) == 1

    def test_binary_search(self, c_run):
        assert c_run("""
int sorted_data[10] = {2, 5, 8, 12, 16, 23, 38, 56, 72, 91};
int bsearch_index(int key) {
    int lo = 0, hi = 9;
    while (lo <= hi) {
        int mid = (lo + hi) / 2;
        if (sorted_data[mid] == key) return mid;
        if (sorted_data[mid] < key) lo = mid + 1;
        else hi = mid - 1;
    }
    return -1;
}
int main(void) {
    return bsearch_index(23) * 100 + bsearch_index(91) * 10
         + (bsearch_index(40) == -1);
}""") == 591

    def test_collatz_longest_chain(self, c_run):
        assert c_run("""
int chain_length(int n) {
    int steps = 0;
    while (n != 1) {
        if (n & 1) n = 3 * n + 1;
        else n = n / 2;
        steps++;
    }
    return steps;
}
int main(void) {
    int best = 0, arg = 0;
    for (int i = 1; i <= 40; i++) {
        int length = chain_length(i);
        if (length > best) { best = length; arg = i; }
    }
    return arg * 1000 + best;
}""", ) == 27 * 1000 + 111

    def test_fixed_point_sqrt(self, c_run):
        assert c_run("""
unsigned isqrt(unsigned n) {
    unsigned root = 0;
    unsigned bit = 1u << 30;
    while (bit > n) bit = bit >> 2;
    while (bit) {
        if (n >= root + bit) {
            n = n - root - bit;
            root = (root >> 1) + bit;
        } else {
            root = root >> 1;
        }
        bit = bit >> 2;
    }
    return root;
}
int main(void) {
    return isqrt(1764) * 1000 + isqrt(99) + isqrt(0);
}""") == 42 * 1000 + 9
