"""The array-swaps, hashmap and queue structural validators read words
in bulk; on any corrupted recovered image they must report exactly what
the word-by-word loops below report, message for message, in order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import ArraySwaps, ConcurrentQueue, Hashmap
from repro.workloads.hashmap import GEN_SPACE
from repro.workloads.queue import MAGIC


def reference_array_swaps(workload, image):
    violations = []
    per = workload.elements_per_thread
    for tid, base in enumerate(workload.partitions):
        expected = sorted(tid * per + index + 1 for index in range(per))
        actual = sorted(image.get(workload.word(base, index), 0)
                        for index in range(per))
        if actual != expected:
            missing = set(expected) - set(actual)
            violations.append(
                f"partition {tid}: multiset changed "
                f"(missing {sorted(missing)[:4]}...)")
    return violations


def reference_hashmap(workload, image):
    violations = []
    for key in range(workload.n_keys):
        value = image.get(workload._value_addr(key), 0)
        gen = image.get(workload._gen_addr(key), 0)
        if value // GEN_SPACE != key:
            violations.append(
                f"key {key}: value {value} does not encode the key")
        if value % GEN_SPACE != gen:
            violations.append(
                f"key {key}: torn update (value gen {value % GEN_SPACE}"
                f" != gen word {gen})")
    return violations


def reference_queue(workload, image):
    violations = []
    for tid in range(workload.n_threads):
        head = image.get(workload.head_addrs[tid], 0)
        tail = image.get(workload.tail_addrs[tid], 0)
        if head > tail:
            violations.append(f"ring {tid}: head {head} > tail {tail}")
        if tail - head > workload.capacity:
            violations.append(f"ring {tid}: over capacity")
        for k in range(head, tail):
            value = image.get(workload._slot(tid, k), 0)
            if value != MAGIC + k:
                violations.append(
                    f"ring {tid} slot {k}: expected {MAGIC + k}, "
                    f"found {value}")
    return violations


# Small partitions, so one edit often lands on a word another moved.
ARRAY_SWAPS = ArraySwaps(seed=5, elements_per_thread=32)
ARRAY_SWAPS.build(2, 40)
HASHMAP = Hashmap(seed=5, n_keys=96)
HASHMAP.build(2, 40)
# A small ring, so enqueues wrap and moved counters span several laps.
QUEUE = ConcurrentQueue(seed=5, capacity=16)
QUEUE.build(2, 40)

values = st.integers(min_value=0, max_value=200 * GEN_SPACE)

array_swaps_edits = st.lists(st.tuples(
    st.sampled_from(("swap", "foreign", "drop")),
    st.integers(min_value=0, max_value=2 * 32 - 1),
    st.integers(min_value=0, max_value=2 * 32 - 1)), max_size=6)

hashmap_edits = st.lists(st.tuples(
    st.sampled_from(("torn", "foreign", "drop_value", "drop_gen",
                     "swap")),
    st.integers(min_value=0, max_value=HASHMAP.n_keys - 1),
    values), max_size=8)

queue_edits = st.lists(st.tuples(
    st.sampled_from(("head", "tail", "slot", "drop_head", "drop_tail",
                     "drop_slot")),
    st.integers(min_value=0, max_value=QUEUE.n_threads - 1),
    st.integers(min_value=0, max_value=5 * QUEUE.capacity)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(array_swaps_edits)
def test_array_swaps_messages_match_the_word_loop(edits):
    """Swaps within and across partitions, values from elsewhere in the
    array (a torn swap duplicates one) and dropped words."""
    per = ARRAY_SWAPS.elements_per_thread
    words = [ARRAY_SWAPS.word(base, index)
             for base in ARRAY_SWAPS.partitions for index in range(per)]
    image = dict(ARRAY_SWAPS.image)
    for kind, i, j in edits:
        if kind == "swap":
            image[words[i]], image[words[j]] = (image.get(words[j], 0),
                                                image.get(words[i], 0))
        elif kind == "foreign":
            image[words[i]] = image.get(words[j], 0)
        else:
            image.pop(words[i], None)
    assert ARRAY_SWAPS.validate_recovered(image) == \
        reference_array_swaps(ARRAY_SWAPS, image)


@settings(max_examples=150, deadline=None)
@given(hashmap_edits)
def test_hashmap_messages_match_the_word_loop(edits):
    image = dict(HASHMAP.image)
    for kind, key, value in edits:
        value_addr, gen_addr = HASHMAP._value_addr(key), HASHMAP._gen_addr(key)
        if kind == "torn":
            image[gen_addr] = value % (2 * GEN_SPACE)
        elif kind == "foreign":
            image[value_addr] = value
        elif kind == "drop_value":
            image.pop(value_addr, None)
        elif kind == "drop_gen":
            image.pop(gen_addr, None)
        else:
            other = HASHMAP._value_addr((key + 1) % HASHMAP.n_keys)
            image[value_addr], image[other] = (image.get(other, 0),
                                               image.get(value_addr, 0))
    assert HASHMAP.validate_recovered(image) == \
        reference_hashmap(HASHMAP, image)


@settings(max_examples=150, deadline=None)
@given(queue_edits)
def test_queue_messages_match_the_word_loop(edits):
    image = dict(QUEUE.image)
    for kind, tid, value in edits:
        slot = QUEUE._slot(tid, value)
        if kind == "head":
            image[QUEUE.head_addrs[tid]] = value
        elif kind == "tail":
            image[QUEUE.tail_addrs[tid]] = value
        elif kind == "slot":
            image[slot] = MAGIC + value * 3
        elif kind == "drop_head":
            image.pop(QUEUE.head_addrs[tid], None)
        elif kind == "drop_tail":
            image.pop(QUEUE.tail_addrs[tid], None)
        else:
            image.pop(slot, None)
    assert QUEUE.validate_recovered(image) == \
        reference_queue(QUEUE, image)


def test_uncorrupted_images_are_consistent():
    for workload in (ARRAY_SWAPS, HASHMAP, QUEUE):
        assert workload.validate_recovered(dict(workload.image)) == []
