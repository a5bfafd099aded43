"""List-scheduling decoder: permutation -> feasible schedule -> makespan.

Decoding rule. Stage 0 dispatches jobs in permutation order. Every later
stage dispatches jobs in nondecreasing order of their ready time (the
completion time at the previous stage), breaking ties by permutation
position. A task needing q processors starts at the earliest time
t >= ready at which q processors are simultaneously free, taking the q
processors with the smallest availability times; equal availability is
broken by the lowest processor index. No backfilling: a task is never
placed before an earlier-dispatched one releases enough capacity.

The decoder is a pure function of (instance, permutation), so schedules
are reproducible bit for bit. It has one implementation,
``insertion_decoder``; the tests hold a second, ``build_schedule``, which
reports the whole schedule, processor ids included, as their reference.

``insertion_decoder`` computes the makespans of an insertion
neighbourhood, the inner loop of the search. It keeps each stage's
availability times as a sorted multiset. The q-th smallest time is where
a task of width q can start, and the q smallest are replaced by its
completion time. This is exact because the processors of a stage are
identical: which ones a task occupies never affects a later start time,
only the multiset of their availability times does. So it gives the
completion times of a decoder that picks processors by (availability,
index). It decodes the permutation without the moved job once and
resumes each insertion from the schedule prefix it shares with that
reference. At stage 0 it also stops dispatching at the first task after
the insertion point that takes every processor: from there on both
schedules have all processors free at one time, so the later stage-0
completions are the reference's, shifted. It stops an insertion once a
lower bound on its makespan reaches a given bound.

``evaluate_makespan``, the makespan of one permutation, is the no-op
move of that decoder: the last job taken out and put back in its place.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter

from .instance import ProblemInstance


def evaluate_makespan(inst: ProblemInstance, order) -> int:
    """Makespan of the decoded schedule, without building the schedule.

    The caller must supply a valid permutation. This is the no-op move of
    ``insertion_decoder``: the last job taken out and put back in its
    place, also when it is the only job. It first decodes the order
    without that job, so it costs about two plain decodes; a search calls
    it once, never inside the scan.
    """
    n = len(order)
    return insertion_decoder(inst, order, n - 1)(n - 1, math.inf)


def insertion_decoder(inst: ProblemInstance, order, from_pos: int):
    """Decoder of every insertion of the job at ``from_pos``, from its removal.

    Decodes the reference ``order`` without that job once, keeping per
    stage its dispatch keys and the availability multiset after each
    step. Returns ``makespan_below(to_pos, bound)``: the makespan of
    ``order`` with the job moved to ``to_pos``, or None once that
    makespan is known to be >= ``bound`` (``math.inf`` for no bound).
    When it returns a number, that number is the exact makespan.
    ``to_pos == from_pos`` is the no-op move, which gives ``order``
    itself, and a single job (n == 1) is decoded as that move.

    Keys are ``ready * w + slot``, with w the smallest power of two above
    2n - 1, so a shift and a mask split a key. The reference job of rank
    r has slot 2r + 1 and the moved job slot 2 * to_pos, so slot order
    is position order in the candidate and reference keys do not depend
    on to_pos.
    A candidate resumes each stage from the longest dispatch prefix it
    provably shares with the reference: the same tasks in the same order
    with the same ready times leave the same availability multiset.
    Stage 0 shares to_pos steps, and dispatches only the moved job and
    the reference ranks from to_pos up to the first one whose task takes
    every processor of the stage (rank b; the last rank when there is
    none). After rank b every processor is free at one time, at T_c in
    the candidate and at T_r in the reference. Every stage-0 task is
    ready at 0 and the later ranks come in the same order, so each
    completes at its reference time plus T_c - T_r: their keys are the
    reference's, shifted. Stage i > 0 shares min(A, B) steps: A
    is the longest prefix of the reference's dispatch order whose jobs
    all lie in the shared prefix of stage i - 1, B the number of
    reference keys below the smallest key the candidate recomputed at
    stage i - 1. Every recomputed task's completion time plus its job's
    work at later stages (``ProblemInstance.stage_tails``) bounds the
    makespan from below; the candidate stops once that reaches ``bound``.
    The shifted stage-0 tasks go unchecked, but their jobs lie outside
    every shared prefix, so each later stage recomputes and checks them.
    When no rank follows b there is nothing to shift; with n == 1 the
    reference is empty and so has no completion of b to shift from.
    """
    n = len(order)
    bits = (2 * n - 1).bit_length()
    width = 1 << bits
    mask = width - 1
    rest = list(order)
    job = rest.pop(from_pos)
    by_slot = [job] * width
    by_slot[1:2 * n - 1:2] = rest
    pick = itemgetter(*by_slot)

    stages = []
    keys = list(range(1, 2 * n - 1, 2))
    done = reach = None
    for (mi, dur, wid), tail in zip(inst.stage_columns, inst.stage_tails):
        if done is not None:
            by_rank = sorted(range(n - 1), key=done.__getitem__)
            keys = [done[d] for d in by_rank]
            reach = list(accumulate(by_rank, max))
        dur_s, wid_s, tail_s = pick(dur), pick(wid), pick(tail)
        avail = [0] * mi
        after = [avail]
        done = []
        for key in keys:
            ready, slot = key >> bits, key & mask
            q = wid_s[slot]
            t = avail[q - 1]
            if ready > t:
                t = ready
            t += dur_s[slot]
            avail = avail[q:]
            at = bisect_right(avail, t)
            avail[at:at] = [t] * q
            after.append(avail)
            done.append(t * width + slot)
        stages.append((keys, reach, after, done, dur_s, wid_s, tail_s, mi))
    first_keys = stages[0][0]
    peak = list(accumulate(done, max, initial=0))
    # per rank r, the first rank >= r whose stage-0 task takes every processor;
    # n - 2, the last rank, when there is none
    m0, wid0 = inst.processors_per_stage[0], stages[0][5]
    next_full = [n - 2] * n
    for r in range(n - 2, -1, -1):
        next_full[r] = r if wid0[2 * r + 1] == m0 else next_full[r + 1]

    def makespan_below(to_pos: int, bound) -> int | None:
        shared = to_pos
        last = next_full[to_pos]
        redone = [2 * to_pos, *first_keys[to_pos:last + 1]]
        prev_done = None
        for ref_keys, reach, after, ref_done, dur_s, wid_s, tail_s, mi in stages:
            if prev_done is not None:
                lowest = min(redone)
                redone = prev_done[:shared] + redone
                redone.sort()
                shared = min(bisect_left(reach, shared), bisect_left(ref_keys, lowest))
                del redone[:shared]
            avail = after[shared].copy()
            keys, redone = redone, []
            for key in keys:
                ready, slot = key >> bits, key & mask
                q = wid_s[slot]
                t = avail[q - 1]
                if ready > t:
                    t = ready
                t += dur_s[slot]
                if t + tail_s[slot] >= bound:
                    return None
                if q == 1:
                    del avail[0]
                    avail.insert(bisect_right(avail, t), t)
                elif q == mi:
                    avail = [t] * q
                else:
                    del avail[:q]
                    at = bisect_right(avail, t)
                    avail[at:at] = [t] * q
                redone.append(t * width + slot)
            if prev_done is None and last < n - 2:
                # after rank `last` every processor is free at one time in both
                # schedules, so the later ranks complete as in the reference, shifted
                shift = redone[-1] - ref_done[last]
                redone += [key + shift for key in ref_done[last + 1:]]
            prev_done = ref_done
        return max(peak[shared], max(redone)) >> bits

    return makespan_below
