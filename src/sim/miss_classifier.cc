#include "src/sim/miss_classifier.hh"

#include "src/util/logging.hh"

namespace sac {
namespace sim {

namespace {

/** splitmix64 finalizer: a full-avalanche mix for table probing. */
inline std::size_t
mixLine(Addr line)
{
    std::uint64_t x = line;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
}

} // namespace

MissClassifier::MissClassifier(std::uint32_t capacity_lines,
                               std::uint32_t line_bytes)
    : capacityLines_(capacity_lines)
{
    SAC_ASSERT(capacity_lines > 0, "classifier needs capacity");
    SAC_ASSERT(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0,
               "line size must be a power of two");
    shift_ = 0;
    while ((1u << shift_) < line_bytes)
        ++shift_;
    table_.resize(1024);
    mask_ = table_.size() - 1;
    nodes_.reserve(capacityLines_);
}

std::size_t
MissClassifier::find(Addr line) const
{
    std::size_t i = mixLine(line) & mask_;
    while (table_[i].key() != line + 1)
        i = (i + 1) & mask_;
    return i;
}

std::size_t
MissClassifier::findOrInsert(Addr line, bool &inserted)
{
    std::size_t i = mixLine(line) & mask_;
    while (table_[i].key() != 0) {
        if (table_[i].key() == line + 1) {
            inserted = false;
            return i;
        }
        i = (i + 1) & mask_;
    }
    inserted = true;
    ++seenCount_;
    if (seenCount_ * 4 > table_.size() * 3) {
        grow();
        i = mixLine(line) & mask_;
        while (table_[i].key() != 0)
            i = (i + 1) & mask_;
    }
    table_[i].setKey(line + 1);
    table_[i].node = npos;
    return i;
}

void
MissClassifier::grow()
{
    std::vector<Slot> old;
    old.swap(table_);
    table_.resize(old.size() * 2);
    mask_ = table_.size() - 1;
    for (const Slot &s : old) {
        if (s.key() == 0)
            continue;
        std::size_t i = mixLine(s.key() - 1) & mask_;
        while (table_[i].key() != 0)
            i = (i + 1) & mask_;
        table_[i] = s;
    }
}

void
MissClassifier::linkFront(std::uint32_t n)
{
    nodes_[n].prev = npos;
    nodes_[n].next = head_;
    if (head_ != npos)
        nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == npos)
        tail_ = n;
}

void
MissClassifier::unlink(std::uint32_t n)
{
    const Node &node = nodes_[n];
    if (node.prev != npos)
        nodes_[node.prev].next = node.next;
    else
        head_ = node.next;
    if (node.next != npos)
        nodes_[node.next].prev = node.prev;
    else
        tail_ = node.prev;
}

std::optional<MissClass>
MissClassifier::access(Addr byte_addr, bool was_miss)
{
    const Addr line = lineOf(byte_addr);

    bool first_touch = false;
    const std::size_t slot = findOrInsert(line, first_touch);

    // Shadow fully-associative LRU lookup + update.
    const bool shadow_hit = table_[slot].node != npos;
    if (shadow_hit) {
        const std::uint32_t n = table_[slot].node;
        if (head_ != n) {
            unlink(n);
            linkFront(n);
        }
    } else {
        std::uint32_t n;
        if (nodes_.size() < capacityLines_) {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        } else {
            // Evict the least recently used shadow line; its table
            // entry stays (it has been seen) with no LRU node.
            n = tail_;
            table_[find(nodes_[n].line)].node = npos;
            unlink(n);
        }
        nodes_[n].line = line;
        table_[slot].node = n;
        linkFront(n);
    }

    if (!was_miss)
        return std::nullopt; // hits have no miss class

    if (first_touch)
        return MissClass::Compulsory;
    if (!shadow_hit)
        return MissClass::Capacity;
    return MissClass::Conflict;
}

} // namespace sim
} // namespace sac
