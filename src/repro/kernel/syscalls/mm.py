"""Memory-management syscalls."""

from __future__ import annotations

from repro.errors import MapError
from repro.kernel import errno
from repro.kernel.fs import RegularFile
from repro.kernel.syscalls.table import syscall
from repro.mem.pages import PAGE_SIZE, Perm, page_align_up

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20


def prot_to_perm(prot: int) -> int:
    perm = Perm.NONE
    if prot & PROT_READ:
        perm |= Perm.R
    if prot & PROT_WRITE:
        perm |= Perm.W
    if prot & PROT_EXEC:
        perm |= Perm.X
    return perm


def _charge_pages(kernel, task, length: int) -> None:
    pages = max(1, page_align_up(length) // PAGE_SIZE)
    kernel.charge(task, kernel.costs.page_op + kernel.costs.page_op_per_page * pages)


@syscall("mmap")
def sys_mmap(kernel, task, args):
    addr, length, prot, flags, fd = args[0], args[1], args[2], args[3], args[4]
    offset = args[5]
    if length == 0:
        return -errno.EINVAL
    _charge_pages(kernel, task, length)
    perm = prot_to_perm(prot)
    min_addr = kernel.mmap_min_addr
    try:
        if flags & MAP_FIXED:
            if addr % PAGE_SIZE:
                return -errno.EINVAL
            if addr < min_addr:
                # vm.mmap_min_addr: fixed mappings below the floor are denied
                # outright (CAP_SYS_RAWIO is not modelled).  This is what makes
                # zpoline/lazypoline's VA-0 sled genuinely deniable.
                return -errno.EPERM
            if task.mem.is_mapped(addr, length):
                task.mem.unmap(addr, page_align_up(length))
            result = task.mem.map(addr, length, perm)
        else:
            hint = max(addr or 0x1000_0000, min_addr)
            result = task.mem.map_anywhere(length, perm, hint=hint)
    except MapError:
        return -errno.ENOMEM
    if not flags & MAP_ANONYMOUS:
        desc = task.fdtable.get(fd & 0xFFFFFFFF)
        if not isinstance(desc, RegularFile):
            task.mem.unmap(result, page_align_up(length))
            return -errno.EBADF
        data = desc.pread(offset, length)
        kernel.charge(task, kernel.costs.copy_cost(len(data)))
        task.mem.write(result, data, check=None)
    return result


@syscall("mprotect")
def sys_mprotect(kernel, task, args):
    addr, length, prot = args[0], args[1], args[2]
    if addr % PAGE_SIZE:
        return -errno.EINVAL
    _charge_pages(kernel, task, length)
    try:
        task.mem.protect(addr, length, prot_to_perm(prot))
    except MapError:
        return -errno.ENOMEM
    return 0


@syscall("munmap")
def sys_munmap(kernel, task, args):
    addr, length = args[0], args[1]
    if addr % PAGE_SIZE:
        return -errno.EINVAL
    _charge_pages(kernel, task, length)
    task.mem.unmap(addr, length)
    return 0


@syscall("pkey_alloc")
def sys_pkey_alloc(kernel, task, args):
    key = task.mem.pkey_alloc()
    if key < 0:
        return -errno.ENOSPC  # all 15 keys in use
    return key


@syscall("pkey_free")
def sys_pkey_free(kernel, task, args):
    return 0 if task.mem.pkey_free(args[0]) else -errno.EINVAL


@syscall("pkey_mprotect")
def sys_pkey_mprotect(kernel, task, args):
    addr, length, prot, pkey = args[0], args[1], args[2], args[3]
    if pkey and pkey not in task.mem.allocated_pkeys:
        return -errno.EINVAL
    ret = sys_mprotect(kernel, task, (addr, length, prot))
    if ret != 0:
        return ret
    try:
        task.mem.assign_pkey(addr, length, pkey)
    except MapError:
        return -errno.ENOMEM
    return 0


@syscall("brk")
def sys_brk(kernel, task, args):
    new_brk = args[0]
    if task.brk == 0:
        # First call establishes the heap base lazily above the data segment.
        from repro.mem import layout

        task.brk = getattr(task, "brk_base", layout.DATA_BASE + 0x10_0000)
    if new_brk == 0 or new_brk <= task.brk:
        return task.brk
    start = page_align_up(task.brk)
    end = page_align_up(new_brk)
    if end > start:
        try:
            task.mem.map(start, end - start, Perm.RW)
        except MapError:
            return task.brk
        _charge_pages(kernel, task, end - start)
    task.brk = new_brk
    return task.brk
