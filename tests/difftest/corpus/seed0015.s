! regression corpus: shrunk from seed 15, run with traces on the first return
! a loop whose first block ends in `bcc,a` to the word after its delay slot:
! both arms lead to the loop's second block; only the taken arm may stay on the trace
! replayed by test_corpus_replays on every run
! difftest program, seed 15
    .text
    .global _start
_start:
    set 1075838848, %sp
    set 1073811456, %g6
    set 2147483760, %g7
    set 3113396384, %g1
    set 3231617108, %g2
    set 1388574094, %g3
    set 1731149957, %g4
    set 1034338248, %g5
    set 1817764401, %o0
    set 3290646132, %o1
    set 315816183, %o2
    set 2573270584, %o3
    set 3648209964, %o4
    set 4083015016, %o5
    set 1960087656, %l0
    set 3722724067, %l1
    set 1379445709, %l2
    set 2301193756, %l3
    set 1129145864, %l4
    set 3569691868, %l5
    set 145291824, %l6
    set 3023775742, %l7
    set 982677107, %i0
    set 2556803225, %i1
    set 1688474834, %i2
    set 353055901, %i3
    set 2758678007, %i5
    set 5, %l6
L15_2_top:
    andncc %l5, %o4, %l7
    cmp %l4, %o5
    bcc,a L15_2_1_skip
    smulcc %o3, %g5, %g3
L15_2_1_skip:
    deccc %l6
    bg L15_2_top
    nop
    set 1073741832, %g1
    st %l0, [%g1]
    ta 0
    nop
