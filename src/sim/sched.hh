/**
 * @file
 * The event-driven run queue of the system scheduler: an indexed
 * binary min-heap of runnable tiles keyed by (local time, tile id).
 *
 * The conservative discipline executes the runnable core with the
 * smallest local time next, ties broken towards the smallest tile id —
 * exactly the element a linear scan with a strict `<` comparison would
 * find. Encoding the tie-break in the heap key makes the heap's pop
 * order bit-identical to the scan's pick order, which is what lets
 * both schedulers share this queue and promise byte-equal run reports
 * (see DESIGN.md §10).
 * The (time, id) key is a total order — tile ids are unique — so the
 * extraction sequence does not depend on the heap's internal layout,
 * and the cheap updateTop() path is observably identical to pop+push.
 *
 * Capacity is the fixed tile count, so the heap lives in two small
 * arrays with no allocation: push/pop are O(log numTiles) with a
 * handful of moves, and idle / halted / blocked tiles — which are
 * simply absent — cost nothing per event. Everything is defined
 * inline: the scheduler touches the queue once or twice per slice,
 * and at slice lengths of a few instructions an out-of-line call per
 * touch is measurable.
 */

#ifndef STITCH_SIM_SCHED_HH
#define STITCH_SIM_SCHED_HH

#include <array>

#include "common/logging.hh"
#include "common/types.hh"

namespace stitch::sim
{

/** Min-heap of runnable tiles ordered by (local time, tile id). */
class RunQueue
{
  public:
    /** One queued tile and the local time it was queued at. */
    struct Entry
    {
        Cycles time = 0;
        TileId tile = -1;
    };

    RunQueue() { pos_.fill(-1); }

    bool empty() const { return size_ == 0; }
    int size() const { return size_; }

    /** Drop every entry (start of a run). */
    void
    clear()
    {
        size_ = 0;
        pos_.fill(-1);
    }

    /** Is tile `t` currently queued? (debugging / invariants) */
    bool
    contains(TileId t) const
    {
        return pos_[static_cast<std::size_t>(t)] >= 0;
    }

    /** Queue tile `t` at local time `time`; `t` must not be queued. */
    void
    push(TileId t, Cycles time)
    {
        STITCH_ASSERT(t >= 0 && t < numTiles);
        STITCH_ASSERT(pos_[static_cast<std::size_t>(t)] < 0,
                      "tile queued twice");
        place(size_, Entry{time, t});
        ++size_;
        siftUp(size_ - 1);
    }

    /** The queued tile with the smallest (time, id) key. */
    TileId
    top() const
    {
        return heap_[0].tile;
    }

    /** Local time of top() when it was queued. */
    Cycles
    topTime() const
    {
        return heap_[0].time;
    }

    /**
     * The entry that becomes top() if top()'s time grows: the smaller
     * of the root's children. Meaningful only while size() > 1; it is
     * the run-ahead horizon of a slice.
     */
    Entry
    second() const
    {
        STITCH_ASSERT(size_ > 1, "no second entry");
        if (size_ > 2 && before(heap_[2], heap_[1]))
            return heap_[2];
        return heap_[1];
    }

    /** Remove top(). */
    void
    pop()
    {
        STITCH_ASSERT(size_ > 0, "pop from an empty run queue");
        pos_[static_cast<std::size_t>(heap_[0].tile)] = -1;
        --size_;
        if (size_ > 0) {
            Entry last = heap_[static_cast<std::size_t>(size_)];
            place(0, last);
            siftDown(0);
        }
    }

    /**
     * Re-key top() at its core's advanced local time without leaving
     * the heap: one siftDown — usually a single exchange with the
     * entry second() returned — instead of a pop+push pair. Requires
     * `time >= topTime()` (local clocks are monotonic).
     */
    void
    updateTop(Cycles time)
    {
        STITCH_ASSERT(size_ > 0, "updateTop on an empty run queue");
        STITCH_ASSERT(time >= heap_[0].time,
                      "core clock moved backwards");
        heap_[0].time = time;
        siftDown(0);
    }

  private:
    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.time != b.time ? a.time < b.time : a.tile < b.tile;
    }

    void
    place(int i, const Entry &e)
    {
        heap_[static_cast<std::size_t>(i)] = e;
        pos_[static_cast<std::size_t>(e.tile)] =
            static_cast<std::int8_t>(i);
    }

    void
    siftUp(int i)
    {
        Entry e = heap_[static_cast<std::size_t>(i)];
        while (i > 0) {
            int parent = (i - 1) / 2;
            if (!before(e, heap_[static_cast<std::size_t>(parent)]))
                break;
            place(i, heap_[static_cast<std::size_t>(parent)]);
            i = parent;
        }
        place(i, e);
    }

    void
    siftDown(int i)
    {
        Entry e = heap_[static_cast<std::size_t>(i)];
        while (true) {
            int child = 2 * i + 1;
            if (child >= size_)
                break;
            if (child + 1 < size_ &&
                before(heap_[static_cast<std::size_t>(child + 1)],
                       heap_[static_cast<std::size_t>(child)]))
                ++child;
            if (!before(heap_[static_cast<std::size_t>(child)], e))
                break;
            place(i, heap_[static_cast<std::size_t>(child)]);
            i = child;
        }
        place(i, e);
    }

    std::array<Entry, numTiles> heap_{};
    std::array<std::int8_t, numTiles> pos_{}; ///< tile -> heap slot
    int size_ = 0;
};

} // namespace stitch::sim

#endif // STITCH_SIM_SCHED_HH
