"""Mini-C statement semantics: control flow, scoping, loops."""


class TestIfElse:
    def test_if_taken(self, c_run):
        assert c_run("""
int main(void) {
    int r = 0;
    if (3 > 1) r = 5;
    return r;
}""") == 5

    def test_if_not_taken(self, c_run):
        assert c_run("""
int main(void) {
    int r = 0;
    if (1 > 3) r = 5;
    return r;
}""") == 0

    def test_if_else_chain(self, c_run):
        source = """
int classify(int x) {
    if (x < 0) return -1;
    else if (x == 0) return 0;
    else return 1;
}
int main(void) { return classify(%d); }
"""
        assert c_run(source % -5) == -1
        assert c_run(source % 0) == 0
        assert c_run(source % 9) == 1

    def test_dangling_else_binds_to_nearest_if(self, c_run):
        assert c_run("""
int main(void) {
    int r = 0;
    if (1)
        if (0) r = 1;
        else r = 2;
    return r;
}""") == 2

    def test_non_comparison_condition(self, c_run):
        assert c_run("""
int main(void) {
    int x = 7;
    if (x) return 1;
    return 0;
}""") == 1

    def test_compound_condition(self, c_run):
        assert c_run("""
int main(void) {
    int a = 3, b = 4;
    if (a > 2 && b > 3 && a + b == 7) return 1;
    return 0;
}""") == 1


class TestLoops:
    def test_while_sum(self, c_run):
        assert c_run("""
int main(void) {
    int i = 0, total = 0;
    while (i < 10) { total += i; i++; }
    return total;
}""") == 45

    def test_while_false_never_runs(self, c_run):
        assert c_run("""
int main(void) {
    int r = 1;
    while (0) r = 2;
    return r;
}""") == 1

    def test_do_while_runs_at_least_once(self, c_run):
        assert c_run("""
int main(void) {
    int r = 0;
    do { r = 7; } while (0);
    return r;
}""") == 7

    def test_for_classic(self, c_run):
        assert c_run("""
int main(void) {
    int total = 0;
    int i;
    for (i = 1; i <= 10; i++) total += i;
    return total;
}""") == 55

    def test_for_with_declaration(self, c_run):
        assert c_run("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 5; i++) total += i * i;
    return total;
}""") == 30

    def test_for_empty_clauses(self, c_run):
        assert c_run("""
int main(void) {
    int i = 0;
    for (;;) {
        i++;
        if (i == 4) break;
    }
    return i;
}""") == 4

    def test_nested_loops(self, c_run):
        assert c_run("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 4; i++)
        for (int j = 0; j < 4; j++)
            total += i * j;
    return total;
}""") == 36

    def test_break_leaves_inner_loop_only(self, c_run):
        assert c_run("""
int main(void) {
    int count = 0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 10; j++) {
            if (j == 2) break;
            count++;
        }
    }
    return count;
}""") == 6

    def test_continue_skips_iteration(self, c_run):
        assert c_run("""
int main(void) {
    int total = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2) continue;
        total += i;
    }
    return total;
}""") == 20

    def test_continue_in_while_reaches_condition(self, c_run):
        assert c_run("""
int main(void) {
    int i = 0, total = 0;
    while (i < 5) {
        i++;
        if (i == 3) continue;
        total += i;
    }
    return total;
}""") == 12


class TestScoping:
    def test_block_shadows_outer(self, c_run):
        assert c_run("""
int main(void) {
    int x = 1;
    {
        int x = 2;
        x = x + 10;
    }
    return x;
}""") == 1

    def test_inner_block_sees_outer(self, c_run):
        assert c_run("""
int main(void) {
    int x = 5;
    { x = x + 1; }
    return x;
}""") == 6

    def test_global_shadowed_by_local(self, c_run):
        assert c_run("""
int x = 100;
int main(void) {
    int x = 1;
    return x;
}""") == 1

    def test_for_loop_variable_scoped(self, c_run):
        assert c_run("""
int main(void) {
    int i = 99;
    for (int i = 0; i < 3; i++) { }
    return i;
}""") == 99


class TestGlobals:
    def test_initialized_global(self, c_run):
        assert c_run("""
int counter = 17;
int main(void) { return counter; }""") == 17

    def test_uninitialized_global_is_zero(self, c_run):
        assert c_run("""
int blank;
int main(void) { return blank; }""") == 0

    def test_global_mutation_persists_across_calls(self, c_run):
        assert c_run("""
int counter = 0;
void bump(void) { counter += 3; }
int main(void) {
    bump();
    bump();
    return counter;
}""") == 6

    def test_global_array_with_initializer(self, c_run):
        assert c_run("""
int table[5] = {10, 20, 30};
int main(void) { return table[0] + table[2] + table[4]; }""") == 40

    def test_global_char_and_constant_folding(self, c_run):
        assert c_run("""
char small = 'x';
unsigned mask = 0xFF00 | 0x00FF;
int main(void) { return (mask == 0xFFFF) + small; }""") == 1 + ord("x")
